"""Command-line front end with deterministic JSON output.

Matrix literals use ';' between rows and whitespace between entries
("2 4; 6 8"); weight vectors are whitespace-separated ("1 2 0"); zero
patterns are whitespace-separated 1-based indices.  Matrices can also be
given as JSON objects {"rows": m, "cols": n, "entries": [[...], ...]},
which round-trips with the emitted payloads; every number in the object
must be a JSON integer.

Exit codes: 0 success, 1 malformed input, 2 precondition violation or a
result too large to print (error "TooLarge").
"""

from __future__ import annotations

import argparse
import json
import sys

from . import action, diag, normalizer, oracle, roots
from .errors import DiagTorusError
from .intmat import IntMatrix, hermite_normal_form, smith_normal_form
from .lattice import equal, lattice_of, pluecker_equal

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def _parse_matrix_text(text: str) -> IntMatrix:
    rows = []
    for part in text.replace("\n", ";").split(";"):
        part = part.strip()
        if part:
            rows.append([int(tok) for tok in part.split()])
    if not rows:
        raise UsageError("empty matrix literal")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise UsageError("ragged matrix literal")
    return IntMatrix.from_rows(rows)


def _parse_matrix_json(text: str) -> IntMatrix:
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
        return IntMatrix(rows, cols, tuple(tuple(row) for row in entries))
    except ValueError as exc:
        raise UsageError(f"invalid matrix object: {exc}") from exc


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise UsageError(f"invalid integer vector: {exc}") from exc


def _parse_zeros(text: str | None) -> frozenset[int]:
    if not text:
        return frozenset()
    try:
        return frozenset(int(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"invalid zero pattern: {exc}") from exc


def _matrix_payload(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [list(r) for r in m.entries]}


def _perm_1based(p) -> list[int]:
    return [x + 1 for x in p]


def _get_matrix(args, flag: str) -> IntMatrix:
    text = getattr(args, flag.replace("-", "_"), None)
    jtext = getattr(args, (flag + "_json").replace("-", "_"), None)
    if text is not None and jtext is not None:
        raise UsageError(f"--{flag} and --{flag}-json are mutually exclusive")
    if jtext is not None:
        return _parse_matrix_json(jtext)
    if text is None:
        if getattr(args, "stdin", False):
            return _parse_matrix_text(sys.stdin.read())
        raise UsageError(f"missing --{flag}")
    return _parse_matrix_text(text)


def _get_subgroup(args) -> diag.DiagSubgroup:
    """The subgroup of --weights, or else of the --matrix input."""
    if args.weights is not None:
        return diag.DiagSubgroup.from_weights(_parse_vector(args.weights))
    return diag.DiagSubgroup.from_matrix(_get_matrix(args, "matrix"))


def _add_matrix_arg(p, flag: str):
    p.add_argument(f"--{flag}", help="matrix literal, rows separated by ';'")
    p.add_argument(f"--{flag}-json", help="matrix as a JSON object")
    if flag == "matrix":
        p.add_argument("--stdin", action="store_true",
                       help="read the matrix literal from standard input")


def _cmd_snf(args):
    dec = smith_normal_form(_get_matrix(args, "matrix"))
    return {"factors": list(dec.factors), "S": _matrix_payload(dec.S),
            "U": _matrix_payload(dec.U), "V": _matrix_payload(dec.V)}, None


def _cmd_hnf(args):
    return _matrix_payload(hermite_normal_form(_get_matrix(args, "matrix"))), None


def _cmd_lattice_equal(args):
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    if args.method == "pluecker":
        return pluecker_equal(a, b), None
    return equal(lattice_of(a), lattice_of(b)), None


def _cmd_isotype(args):
    t = diag.iso_type(_get_subgroup(args))
    return {"torus_rank": t.torus_rank, "factors": list(t.factors),
            "dimension": t.torus_rank, "order": t.order}, None


def _cmd_conjugate(args):
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    g1 = diag.DiagSubgroup.from_matrix(a)
    g2 = diag.DiagSubgroup.from_matrix(b)
    if args.group in ("gln", "monomial"):
        perm = diag.conjugate_in_gl(g1, g2)
        witness = None if perm is None else {"permutation": _perm_1based(perm)}
        return perm is not None, witness
    if args.group == "crn":
        ok = diag.conjugate_in_crn(g1, g2)
        witness = None
        if ok:
            m = diag.crn_conjugator(g1, g2)
            witness = {"unimodular_matrix": _matrix_payload(m)}
        return ok, witness
    # autn-codim1: rank-one weight inputs, decided by the canonical form
    if a.rows != 1 or b.rows != 1:
        raise UsageError("--group autn-codim1 expects single-row weight matrices")
    ok = diag.codim1_canonical(a.entries[0]) == diag.codim1_canonical(b.entries[0])
    witness = None
    if ok:
        sigma, eps = diag.codim1_conjugator(a.entries[0], b.entries[0])
        witness = {"permutation": _perm_1based(sigma), "sign": eps}
    return ok, witness


def _cmd_canonical(args):
    if args.context == "crn":
        g = diag.DiagSubgroup.from_matrix(_get_matrix(args, "matrix"))
        c = diag.crn_canonical(g)
        return {"r": c.r, "factors": list(c.factors),
                "matrix": _matrix_payload(c.canonical_matrix)}, None
    weights = _parse_vector(args.weights) if args.weights else None
    if weights is None:
        raise UsageError("this context requires --weights")
    if args.context == "autn-codim1":
        return list(diag.codim1_canonical(weights)), None
    if args.context == "aut3-torus":
        return list(diag.aut3_torus_canonical(weights)), None
    return list(diag.crn_codim1_canonical(weights)), None


def _cmd_orbit(args):
    weights = _parse_vector(args.weights)
    zeros = _parse_zeros(args.zeros)
    rep = action.orbit_report(weights, zeros)
    return {
        "stabilizer": {"torus_rank": rep.stabilizer.torus_rank,
                       "factors": list(rep.stabilizer.factors)},
        "stabilizer_dim": rep.stabilizer_dim,
        "stabilizer_order": rep.stabilizer_order,
        "orbit_dim": rep.orbit_dim,
        "closed": rep.closed,
        "origin_in_closure": rep.origin_in_closure,
    }, None


def _cmd_action_report(args):
    rep = action.action_report(_parse_vector(args.weights))
    return {
        "group_dim": rep.group_dim,
        "stable": rep.stable,
        "has_nonconstant_invariants": rep.has_nonconstant_invariants,
        "invariant_monomial": list(rep.invariant_monomial)
        if rep.invariant_monomial is not None else None,
        "nonclosed_codim1_orbit_axes": list(rep.nonclosed_codim1_orbit_axes),
    }, None


def _cmd_normalizer(args):
    rep = normalizer.normalizer_report(_parse_vector(args.weights))
    return {
        "case": {"tag": rep.case.tag, "axis": rep.case.axis},
        "contained_in_monomial": rep.contained_in_monomial,
        "perm_part": [{"permutation": _perm_1based(s), "sign": e}
                      for s, e in rep.perm_part],
        "perm_order": rep.perm_order,
        "centralizer_perm_part": [_perm_1based(s)
                                  for s in rep.centralizer_perm_part],
        "explicit_structure": rep.explicit_structure,
        "note": rep.note,
    }, None


def _cmd_roots(args):
    out = []
    for rv in roots.enumerate_root_vectors(args.dim, args.degree):
        out.append({
            "i": rv.i,
            "l": list(rv.l),
            "root": list(roots.root_of(rv, roots.DN).exponents),
            "root_mod_diagonal": list(roots.root_of(rv, roots.DN_STAR).exponents),
        })
    return out, None


def _cmd_oracle_torsion(args):
    return oracle.torsion_count(_get_subgroup(args), args.modulus), None


def _cmd_oracle_lattice_equal(args):
    a = _get_matrix(args, "a")
    b = _get_matrix(args, "b")
    bound = args.bound if args.bound is not None else oracle.default_lattice_bound(a, b)
    return oracle.lattice_equal_bounded(a, b, bound), None


def _cmd_oracle_closedness(args):
    weights = _parse_vector(args.weights)
    zeros = _parse_zeros(args.zeros)
    bound = args.bound if args.bound is not None else oracle.default_closedness_bound(weights)
    d = oracle.closedness_search(weights, zeros, bound)
    witness = None if d is None else {"d": list(d)}
    return d is None, witness  # result True = closed (no witness found)


def _cmd_oracle_perm_sign(args):
    rel = oracle.perm_sign_exhaust(_parse_vector(args.a), _parse_vector(args.b))
    if rel is None:
        return False, None
    return True, {"permutation": _perm_1based(rel[0]), "sign": rel[1]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagtorus", description=__doc__, exit_on_error=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", exit_on_error=False)
    _add_matrix_arg(p, "matrix")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("hnf", exit_on_error=False)
    _add_matrix_arg(p, "matrix")
    p.set_defaults(func=_cmd_hnf)

    p = sub.add_parser("lattice-equal", exit_on_error=False)
    _add_matrix_arg(p, "a")
    _add_matrix_arg(p, "b")
    p.add_argument("--method", choices=["hermite", "pluecker"], default="hermite")
    p.set_defaults(func=_cmd_lattice_equal)

    p = sub.add_parser("isotype", exit_on_error=False)
    _add_matrix_arg(p, "matrix")
    p.add_argument("--weights")
    p.set_defaults(func=_cmd_isotype)

    p = sub.add_parser("conjugate", exit_on_error=False)
    p.add_argument("--group", required=True,
                   choices=["gln", "monomial", "crn", "autn-codim1"])
    _add_matrix_arg(p, "a")
    _add_matrix_arg(p, "b")
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("canonical", exit_on_error=False)
    p.add_argument("--context", required=True,
                   choices=["crn", "autn-codim1", "aut3-torus", "crn-codim1"])
    _add_matrix_arg(p, "matrix")
    p.add_argument("--weights")
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("orbit", exit_on_error=False)
    p.add_argument("--weights", required=True)
    p.add_argument("--zeros", default="")
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("action-report", exit_on_error=False)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=_cmd_action_report)

    p = sub.add_parser("normalizer", exit_on_error=False)
    p.add_argument("--weights", required=True)
    p.set_defaults(func=_cmd_normalizer)

    p = sub.add_parser("roots", exit_on_error=False)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("oracle-torsion-count", exit_on_error=False)
    _add_matrix_arg(p, "matrix")
    p.add_argument("--weights")
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(func=_cmd_oracle_torsion)

    p = sub.add_parser("oracle-lattice-equal", exit_on_error=False)
    _add_matrix_arg(p, "a")
    _add_matrix_arg(p, "b")
    p.add_argument("--bound", type=int)
    p.set_defaults(func=_cmd_oracle_lattice_equal)

    p = sub.add_parser("oracle-closedness", exit_on_error=False)
    p.add_argument("--weights", required=True)
    p.add_argument("--zeros", default="")
    p.add_argument("--bound", type=int)
    p.set_defaults(func=_cmd_oracle_closedness)

    p = sub.add_parser("oracle-perm-sign", exit_on_error=False)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=_cmd_oracle_perm_sign)

    return parser


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")) + "\n")


def _fail(code: int, kind: str, exc: Exception) -> int:
    sys.stderr.write(f"diagtorus: {exc}\n")
    _emit({"schema_version": SCHEMA_VERSION, "ok": False,
           "error": kind, "message": str(exc)})
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except (argparse.ArgumentError, SystemExit) as exc:
        code = exc.code if isinstance(exc, SystemExit) else None
        if isinstance(exc, SystemExit) and code == 0:
            return 0  # --help
        sys.stderr.write("" if isinstance(exc, SystemExit)
                         else f"diagtorus: {exc}\n")
        _emit({"schema_version": SCHEMA_VERSION, "ok": False,
               "error": "usage", "message": str(exc)})
        return 1
    try:
        result, witness = args.func(args)
    except UsageError as exc:
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
