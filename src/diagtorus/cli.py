"""Command-line front end with deterministic JSON output.

Matrix literals use ';' between rows and whitespace between entries
("2 4; 6 8"); weight vectors are whitespace-separated ("1 2 0"); zero
patterns are whitespace-separated 1-based indices.  Matrices can also be
given as JSON objects {"rows": m, "cols": n, "entries": [[...], ...]},
which round-trips with the emitted payloads; every number in the object
must be a JSON integer.

Every run prints one JSON line with sorted keys; a result object prints as
its dataclass fields.

Exit codes: 0 success, 1 malformed input, 2 precondition violation or a
result too large to print (error "TooLarge").
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

# the handlers reach each library module as an attribute of the package,
# which imports it on first use: building the parser loads none, a run loads
# only what it uses, and a later run finds the module already bound
import diagtorus
from .errors import DiagTorusError, DimensionMismatch

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error instead of printing it and exiting, so the
    payload carries argparse's reason; subparsers are built of this class
    too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _plain(text: str) -> bool:
    """Whether text is ASCII without '_'.  Its whitespace-separated tokens
    are then integers exactly when they are [+-]?[0-9]+, which is what int
    reads; on other text int also reads '1_000' and digits such as '١'."""
    return text.isascii() and "_" not in text


def _strict_int(tok: str) -> int:
    """int of a [+-]?[0-9]+ token, and for any other token int's error."""
    if _plain(tok):
        return int(tok)
    # int's own message, which cuts the repr at 200 characters
    raise ValueError(f"invalid literal for int() with base 10: {repr(tok)[:200]}")


def _ints(tokens: list[str], plain: bool) -> list[int]:
    """The integers of tokens, given whether the text they come from is
    _plain: one test of the text spares a test of each token."""
    if plain:
        return [int(tok) for tok in tokens]
    return [_strict_int(tok) for tok in tokens]


def _int_option(text: str) -> int:
    """The type of an integer option, strict as a text operand's tokens."""
    try:
        return _strict_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_matrix_text(text: str):
    plain = _plain(text)
    rows = []
    for part in text.replace("\n", ";").split(";"):
        part = part.strip()
        if part:
            rows.append(_ints(part.split(), plain))
    if not rows:
        raise UsageError("empty matrix literal")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError("ragged matrix literal")
    return diagtorus.intmat.IntMatrix.from_rows(rows)


def _parse_matrix_json(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"rows", "cols", "entries"} <= obj.keys():
        raise UsageError("invalid matrix object: need rows, cols and entries")
    rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    # bool is a subclass of int, so compare exact types: 1.9, true and "3"
    # are rejected, never truncated or coerced
    if not (type(rows) is int and type(cols) is int and type(entries) is list
            and all(type(row) is list for row in entries)
            and all(type(x) is int for row in entries for x in row)):
        raise UsageError("invalid matrix object: rows, cols and entries must be integers")
    if cols < 1:
        raise UsageError("invalid matrix object: need cols >= 1")
    try:
        return diagtorus.intmat.IntMatrix(rows, cols,
                                          tuple(tuple(row) for row in entries))
    except ValueError as exc:
        raise UsageError(f"invalid matrix object: {exc}") from exc


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(_ints(text.split(), _plain(text)))
    except ValueError as exc:
        raise UsageError(f"invalid integer vector: {exc}") from exc


def _parse_zeros(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(_ints(text.replace(",", " ").split(), _plain(text)))
    except ValueError as exc:
        raise UsageError(f"invalid zero pattern: {exc}") from exc


def _perm_1based(p) -> list[int]:
    return [x + 1 for x in p]


def _get_matrix(args, flag: str):
    text = getattr(args, flag, None)
    jtext = getattr(args, flag + "_json", None)
    if text is not None and jtext is not None:
        raise UsageError(f"--{flag} and --{flag}-json are mutually exclusive")
    if jtext is not None:
        return _parse_matrix_json(jtext)
    if text is None:
        if getattr(args, "stdin", False):
            return _parse_matrix_text(sys.stdin.read())
        raise UsageError(f"missing --{flag}")
    return _parse_matrix_text(text)


def _get_subgroup(args):
    """The DiagSubgroup of --weights, or else of the --matrix input."""
    diag = diagtorus.diag
    if args.weights is not None:
        return diag.DiagSubgroup.from_weights(_parse_vector(args.weights))
    return diag.DiagSubgroup.from_matrix(_get_matrix(args, "matrix"))


def _cmd_snf(args):
    return diagtorus.intmat.smith_normal_form(_get_matrix(args, "matrix")), None


def _cmd_hnf(args):
    return diagtorus.intmat.hermite_normal_form(_get_matrix(args, "matrix")), None


def _cmd_lattice_equal(args):
    lattice = diagtorus.lattice
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    if args.method == "pluecker":
        return lattice.pluecker_equal(a, b), None
    return lattice.equal(lattice.lattice_of(a), lattice.lattice_of(b)), None


def _cmd_isotype(args):
    t = diagtorus.diag.iso_type(_get_subgroup(args))
    return {**vars(t), "dimension": t.torus_rank, "order": t.order}, None


def _cmd_conjugate(args):
    diag = diagtorus.diag
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    g1 = diag.DiagSubgroup.from_matrix(a)
    g2 = diag.DiagSubgroup.from_matrix(b)
    if args.group in ("gln", "monomial"):
        perm = diag.conjugate_in_gl(g1, g2)
        witness = None if perm is None else {"permutation": _perm_1based(perm)}
        return perm is not None, witness
    if args.group == "crn":
        m = diag.crn_conjugator(g1, g2)
        return m is not None, None if m is None else {"unimodular_matrix": m}
    # autn-codim1: rank-one weight inputs, decided by the canonical form
    if a.rows != 1 or b.rows != 1:
        raise UsageError("--group autn-codim1 expects single-row weight matrices")
    if a.cols != b.cols:
        raise DimensionMismatch("subgroups live in different ambient tori")
    ok = diag.codim1_canonical(a.entries[0]) == diag.codim1_canonical(b.entries[0])
    witness = None
    if ok:
        sigma, eps = diag.codim1_conjugator(a.entries[0], b.entries[0])
        witness = {"permutation": _perm_1based(sigma), "sign": eps}
    return ok, witness


def _cmd_canonical(args):
    diag = diagtorus.diag
    if args.context == "crn":
        g = diag.DiagSubgroup.from_matrix(_get_matrix(args, "matrix"))
        c = diag.crn_canonical(g)
        return {"r": c.r, "factors": c.factors, "matrix": c.canonical_matrix}, None
    if args.weights is None:
        raise UsageError("this context requires --weights")
    weights = _parse_vector(args.weights)
    if args.context == "autn-codim1":
        return diag.codim1_canonical(weights), None
    if args.context == "aut3-torus":
        return diag.aut3_torus_canonical(weights), None
    return diag.crn_codim1_canonical(weights), None


def _cmd_orbit(args):
    weights = _parse_vector(args.weights)
    return diagtorus.action.orbit_report(weights, _parse_zeros(args.zeros)), None


def _cmd_action_report(args):
    return diagtorus.action.action_report(_parse_vector(args.weights)), None


def _cmd_normalizer(args):
    rep = diagtorus.normalizer.normalizer_report(_parse_vector(args.weights))
    return {
        **vars(rep),
        "perm_part": [{"permutation": _perm_1based(s), "sign": e}
                      for s, e in rep.perm_part],
        "centralizer_perm_part": [_perm_1based(s)
                                  for s in rep.centralizer_perm_part],
    }, None


def _cmd_roots(args):
    roots = diagtorus.roots
    out = []
    for rv in roots.enumerate_root_vectors(args.dim, args.degree):
        out.append({
            "i": rv.i,
            "l": rv.l,
            "root": roots.root_of(rv, roots.DN).exponents,
            "root_mod_diagonal": roots.root_of(rv, roots.DN_STAR).exponents,
        })
    return out, None


def _cmd_oracle_torsion(args):
    return diagtorus.oracle.torsion_count(_get_subgroup(args), args.modulus), None


def _cmd_oracle_lattice_equal(args):
    oracle = diagtorus.oracle
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    if a.cols != b.cols:
        raise DimensionMismatch("lattices live in different ambient dimensions")
    bound = args.bound if args.bound is not None else oracle.default_lattice_bound(a, b)
    return oracle.lattice_equal_bounded(a, b, bound), None


def _cmd_oracle_closedness(args):
    oracle = diagtorus.oracle
    weights = _parse_vector(args.weights)
    zeros = _parse_zeros(args.zeros)
    bound = args.bound if args.bound is not None else oracle.default_closedness_bound(weights)
    d = oracle.closedness_search(weights, zeros, bound)
    witness = None if d is None else {"d": d}
    return d is None, witness  # result True = closed (no witness found)


def _cmd_oracle_perm_sign(args):
    a, b = _parse_vector(args.a), _parse_vector(args.b)
    if len(a) != len(b):
        raise DimensionMismatch("weight vectors have different lengths")
    rel = diagtorus.oracle.perm_sign_exhaust(a, b)
    if rel is None:
        return False, None
    return True, {"permutation": _perm_1based(rel[0]), "sign": rel[1]}


# Each subcommand with its handler and its arguments, in declaration order
# (argparse reports missing required arguments in that order).  A bare name
# is a --name/--name-json matrix operand pair, and "matrix" also takes
# --stdin; a (flag, keywords) pair is passed to add_argument as it is.
_REQUIRED = {"required": True}
_REQUIRED_INT = {"type": _int_option, "required": True}
_ZEROS = ("--zeros", {"default": ""})
_BOUND = ("--bound", {"type": _int_option})
_COMMANDS = {
    "snf": (_cmd_snf, ["matrix"]),
    "hnf": (_cmd_hnf, ["matrix"]),
    "lattice-equal": (_cmd_lattice_equal, [
        "a", "b",
        ("--method", {"choices": ["hermite", "pluecker"], "default": "hermite"})]),
    "isotype": (_cmd_isotype, ["matrix", ("--weights", {})]),
    "conjugate": (_cmd_conjugate, [
        ("--group", {"required": True,
                     "choices": ["gln", "monomial", "crn", "autn-codim1"]}),
        "a", "b"]),
    "canonical": (_cmd_canonical, [
        ("--context", {"required": True,
                       "choices": ["crn", "autn-codim1", "aut3-torus", "crn-codim1"]}),
        "matrix", ("--weights", {})]),
    "orbit": (_cmd_orbit, [("--weights", _REQUIRED), _ZEROS]),
    "action-report": (_cmd_action_report, [("--weights", _REQUIRED)]),
    "normalizer": (_cmd_normalizer, [("--weights", _REQUIRED)]),
    "roots": (_cmd_roots, [("--dim", _REQUIRED_INT), ("--degree", _REQUIRED_INT)]),
    "oracle-torsion-count": (_cmd_oracle_torsion, [
        "matrix", ("--weights", {}), ("--modulus", _REQUIRED_INT)]),
    "oracle-lattice-equal": (_cmd_oracle_lattice_equal, ["a", "b", _BOUND]),
    "oracle-closedness": (_cmd_oracle_closedness, [
        ("--weights", _REQUIRED), _ZEROS, _BOUND]),
    "oracle-perm-sign": (_cmd_oracle_perm_sign, [("--a", _REQUIRED), ("--b", _REQUIRED)]),
}


def _declared(name: str):
    """Each flag of subcommand name with its add_argument keywords, in
    declaration order."""
    for arg in _COMMANDS[name][1]:
        if isinstance(arg, str):
            yield f"--{arg}", {"help": "matrix literal, rows separated by ';'"}
            yield f"--{arg}-json", {"help": "matrix as a JSON object"}
            if arg == "matrix":
                yield "--stdin", {"action": "store_true",
                                  "help": "read the matrix literal from standard input"}
        else:
            yield arg


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give parser the arguments and the handler of subcommand name."""
    for flag, keywords in _declared(name):
        parser.add_argument(flag, **keywords)
    parser.set_defaults(func=_COMMANDS[name][0])
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand."""
    parser = _Parser(prog="diagtorus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_arguments(sub.add_parser(name), name)
    return parser


@functools.cache
def _parser_for(name: str | None) -> argparse.ArgumentParser:
    """The parser main uses: subcommand name's own, or the full one for None.

    A subparser takes only its prog from the full parser, so a standalone
    parser of that prog parses the arguments after the name, rejects them and
    prints its help as the full parser's subparser does, without the full
    parser first matching the name.  Built once per process: a parser keeps
    no state between parse_args calls, each of which returns a fresh
    Namespace, and every default it holds is immutable.
    """
    if name is None:
        return build_parser()
    return _add_arguments(_Parser(prog=f"diagtorus {name}"), name)


@functools.cache
def _flag_table(name: str):
    """Subcommand name's flags as _read_flags reads them, from the same
    declarations as its parser: each flag with its dest, whether it takes a
    value, its type and its choices; the Namespace fields before any flag is
    read; and the required flags.  Built once per process, as the parser is."""
    flags, fields, required = {}, {"func": _COMMANDS[name][0]}, set()
    for flag, keywords in _declared(name):
        dest = flag[2:].replace("-", "_")
        takes_value = keywords.get("action") != "store_true"
        flags[flag] = dest, takes_value, keywords.get("type"), keywords.get("choices")
        fields[dest] = keywords.get("default", None if takes_value else False)
        if keywords.get("required"):
            required.add(flag)
    return flags, fields, frozenset(required)


def _is_value(token: str) -> bool:
    """Whether argparse reads token as an option's value rather than as an
    option, for a parser whose only single-dash option is -h: text that does
    not start with '-' is a value, and so are a negative integer and text
    with a space that start with neither '--' nor '-h'.  Other tokens that
    start with '-', some of which argparse reads as values too, are left to
    argparse."""
    return not token.startswith("-") or (
        not token.startswith(("--", "-h")) and (token[1:].isdecimal() or " " in token))


def _read_flags(name: str, argv) -> argparse.Namespace | None:
    """The Namespace that subcommand name's parser returns for argv, read from
    its flag table, or None when argv is not plainly well formed.

    Plainly well formed: every token is an exact flag, each followed by a
    value when it takes one; each value is _is_value and passes its type and
    choices; every required flag is given.  A repeated flag keeps its last
    value, as argparse's store action does.  None leaves the rest to argparse:
    help, abbreviations, --flag=value, '--', unknown flags, and every usage
    error with its message.
    """
    flags, defaults, required = _flag_table(name)
    fields = dict(defaults)
    tokens = iter(argv)
    for token in tokens:
        entry = flags.get(token)
        if entry is None:
            return None
        dest, takes_value, type_, choices = entry
        value = True
        if takes_value:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                return None
            if type_ is not None:
                try:
                    value = type_(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
            if choices is not None and value not in choices:
                return None
        fields[dest] = value
    # no value is a flag (_is_value refuses '--'), so each flag in argv was
    # read as one
    if not required.issubset(argv):
        return None
    return argparse.Namespace(**fields)


def _parse_args(argv) -> argparse.Namespace:
    """argv's Namespace.  A named subcommand's plainly well-formed arguments
    are read from its flag table; anything else is parsed by argparse, which
    gives every help text and usage error: by the subcommand's own parser, or
    by the full parser for an empty argv, a leading option or an unknown
    name."""
    if argv and argv[0] in _COMMANDS:
        name, rest = argv[0], argv[1:]
        args = _read_flags(name, rest)
        return args if args is not None else _parser_for(name).parse_args(rest)
    return _parser_for(None).parse_args(argv)


def _fields(obj) -> dict:
    """json.dumps hook: a dataclass instance prints as its fields."""
    import dataclasses
    if dataclasses.is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                default=_fields) + "\n")


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(f"diagtorus: {exc}\n")
    _emit({"schema_version": SCHEMA_VERSION, "ok": False,
           "error": kind, "message": str(exc)})
    return code


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
        result, witness = args.func(args)
    except SystemExit:  # only --help exits; it has printed the help
        return 0
    except (argparse.ArgumentError, UsageError) as exc:
        return _fail(1, "usage", exc)
    except ValueError as exc:
        return _fail(1, "value", exc)
    except DiagTorusError as exc:
        return _fail(2, type(exc).__name__, exc)
    payload = {"schema_version": SCHEMA_VERSION, "ok": True, "result": result}
    if witness is not None:
        payload["witness"] = witness
    try:
        _emit(payload)
    except ValueError as exc:
        # an integer past the interpreter's int-to-str digit limit; json
        # raises before anything is written
        return _fail(2, "TooLarge", exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
