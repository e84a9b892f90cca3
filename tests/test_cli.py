import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diagtorus import cli
from diagtorus.cli import main
from diagtorus.diag import IsoType

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def golden(result, witness=None):
    payload = {"schema_version": 1, "ok": True, "result": result}
    if witness is not None:
        payload["witness"] = witness
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


class TestGoldenOutputs:
    def test_hnf(self, capsys):
        code, out = run(capsys, "hnf", "--matrix", "1 2; 3 4")
        assert code == 0
        assert out == golden({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]})

    def test_snf(self, capsys):
        code, payload = run_json(capsys, "snf", "--matrix", "2 4; 6 8")
        assert code == 0
        assert payload["ok"] is True
        assert payload["result"]["factors"] == [2, 4]
        # the witnesses must reconstruct the diagonal form
        from diagtorus import IntMatrix

        def mat(obj):
            return IntMatrix(obj["rows"], obj["cols"],
                             tuple(tuple(r) for r in obj["entries"]))

        r = payload["result"]
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert mat(r["U"]) @ a @ mat(r["V"]) == mat(r["S"])

    def test_lattice_equal_both_methods(self, capsys):
        for method in ("hermite", "pluecker"):
            code, out = run(capsys, "lattice-equal", "--a", "1 2; 3 4",
                            "--b", "1 0; 0 2", "--method", method)
            assert code == 0
            assert out == golden(True)

    def test_isotype(self, capsys):
        code, out = run(capsys, "isotype", "--weights", "2 4")
        assert code == 0
        assert out == golden({"torus_rank": 1, "factors": [2],
                              "dimension": 1, "order": None})

    def test_conjugate_crn(self, capsys):
        code, out = run(capsys, "conjugate", "--group", "crn",
                        "--a", "2 0", "--b", "0 2")
        assert code == 0
        assert out == golden(True, {"unimodular_matrix": {
            "rows": 2, "cols": 2, "entries": [[0, 1], [1, 0]]}})

    @pytest.mark.parametrize("b", [
        "4 0",        # Z/2 x G_m against Z/4 x G_m: factors differ
        "1 0; 0 2",   # rank 1 against rank 2, with the same nontrivial factor
    ])
    def test_conjugate_crn_none(self, capsys, b):
        code, out = run(capsys, "conjugate", "--group", "crn", "--a", "2 0", "--b", b)
        assert code == 0
        assert out == golden(False)

    def test_conjugate_gln(self, capsys):
        code, out = run(capsys, "conjugate", "--group", "gln",
                        "--a", "1 0 0; 0 2 0", "--b", "0 1 0; 2 0 0")
        assert code == 0
        assert out == golden(True, {"permutation": [2, 1, 3]})

    def test_conjugate_codim1(self, capsys):
        code, out = run(capsys, "conjugate", "--group", "autn-codim1",
                        "--a", "1 2", "--b", "-2 -1")
        assert code == 0
        assert out == golden(True, {"permutation": [2, 1], "sign": -1})

    def test_conjugate_codim1_witness_past_n8(self, capsys):
        a = " ".join(str(x) for x in range(1, 11))
        b = " ".join(str(-x) for x in reversed(range(1, 11)))
        code, out = run(capsys, "conjugate", "--group", "autn-codim1", "--a", a, "--b", b)
        assert code == 0
        assert out == golden(True, {"permutation": list(range(10, 0, -1)), "sign": -1})

    def test_canonical_codim1(self, capsys):
        code, out = run(capsys, "canonical", "--context", "autn-codim1",
                        "--weights", "1 0")
        assert code == 0
        assert out == golden([-1, 0])

    def test_canonical_crn(self, capsys):
        code, out = run(capsys, "canonical", "--context", "crn",
                        "--matrix", "2 4; 6 8")
        assert code == 0
        assert out == golden({"r": 0, "factors": [2, 4], "matrix": {
            "rows": 2, "cols": 2, "entries": [[2, 0], [0, 4]]}})

    def test_orbit(self, capsys):
        code, out = run(capsys, "orbit", "--weights", "1 1", "--zeros", "1")
        assert code == 0
        assert out == golden({
            "stabilizer": {"torus_rank": 0, "factors": []},
            "stabilizer_dim": 0,
            "stabilizer_order": 1,
            "orbit_dim": 1,
            "closed": False,
            "origin_in_closure": True,
        })

    def test_action_report(self, capsys):
        code, out = run(capsys, "action-report", "--weights", "1 2 3")
        assert code == 0
        assert out == golden({
            "group_dim": 2,
            "stable": True,
            "has_nonconstant_invariants": True,
            "invariant_monomial": [1, 2, 3],
            "nonclosed_codim1_orbit_axes": [1, 2, 3],
        })

    def test_normalizer(self, capsys):
        code, payload = run_json(capsys, "normalizer", "--weights", "1 1")
        assert code == 0
        r = payload["result"]
        assert r["case"] == {"tag": "same_sign_all_nonzero", "axis": None}
        assert r["perm_order"] == 2
        assert {"permutation": [2, 1], "sign": 1} in r["perm_part"]

    def test_normalizer_of_the_empty_vector(self, capsys):
        code, out = run(capsys, "normalizer", "--weights", "")
        assert (code, out) == (0, golden({
            "case": {"axis": None, "tag": "full_torus"},
            "centralizer_perm_part": [[]],
            "contained_in_monomial": True,
            "explicit_structure": None,
            "note": None,
            "perm_order": 1,
            "perm_part": [{"permutation": [], "sign": 1}],
        }))

    def test_roots(self, capsys):
        code, out = run(capsys, "roots", "--dim", "2", "--degree", "1")
        assert code == 0
        assert out == golden([
            {"i": 1, "l": [0, 0], "root": [-1, 0], "root_mod_diagonal": [0, 1]},
            {"i": 1, "l": [0, 1], "root": [-1, 1], "root_mod_diagonal": [0, 2]},
            {"i": 2, "l": [0, 0], "root": [0, -1], "root_mod_diagonal": [1, 0]},
            {"i": 2, "l": [1, 0], "root": [1, -1], "root_mod_diagonal": [2, 0]},
        ])

    def test_oracle_subcommands(self, capsys):
        code, out = run(capsys, "oracle-torsion-count",
                        "--weights", "2 2", "--modulus", "2")
        assert (code, out) == (0, golden(4))
        code, out = run(capsys, "oracle-lattice-equal",
                        "--a", "1 2; 3 4", "--b", "1 0; 0 2")
        assert (code, out) == (0, golden(True))
        code, out = run(capsys, "oracle-closedness", "--weights", "1 2 3")
        assert (code, out) == (0, golden(True))
        code, out = run(capsys, "oracle-closedness", "--weights", "1 1",
                        "--zeros", "1", "--bound", "2")
        assert (code, out) == (0, golden(False, {"d": [-1, 1]}))
        code, out = run(capsys, "oracle-perm-sign", "--a", "1 2", "--b", "-2 -1")
        assert (code, out) == (0, golden(True, {"permutation": [2, 1], "sign": -1}))


class TestContracts:
    def test_byte_identical_reruns(self, capsys):
        cases = [
            ("snf", "--matrix", "2 4; 6 8"),
            ("normalizer", "--weights", "1 -1 0"),
            ("roots", "--dim", "3", "--degree", "2"),
        ]
        for argv in cases:
            _, first = run(capsys, *argv)
            _, second = run(capsys, *argv)
            assert first == second

    def test_matrix_json_round_trip(self, capsys):
        _, payload = run_json(capsys, "hnf", "--matrix", "1 2; 3 4")
        again_code, again = run_json(capsys, "hnf", "--matrix-json",
                                     json.dumps(payload["result"]))
        assert again_code == 0
        assert again["result"] == payload["result"]

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2; 3 4"))
        code, out = run(capsys, "hnf", "--stdin")
        assert code == 0
        assert out == golden({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]})
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2; 3 4_0"))
        code, payload = run_json(capsys, "hnf", "--stdin")
        assert code == 1 and payload["error"] == "value"

    def test_malformed_input_exits_1(self, capsys):
        for argv in [
            ("hnf", "--matrix", "1 2; 3"),
            ("hnf", "--matrix", "1 x"),
            ("orbit", "--weights", "not numbers"),
            ("no-such-command",),
            ("conjugate", "--a", "1", "--b", "1"),
        ]:
            code, out = run(capsys, *argv)
            assert code == 1, argv
            payload = json.loads(out)
            assert payload["ok"] is False

    @pytest.mark.parametrize("argv,message", [
        (("orbit",), "the following arguments are required: --weights"),
        (("hnf", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        ((), "the following arguments are required: command"),
        (("roots", "--dim", "x", "--degree", "1"), "argument --dim: invalid int value: 'x'"),
        (("canonical", "--context", "aut3-torus"), "this context requires --weights"),
    ])
    def test_usage_error_payload_carries_the_reason(self, capsys, argv, message):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out) == {"schema_version": 1, "ok": False,
                                   "error": "usage", "message": message}
        assert err == f"diagtorus: {message}\n"

    @pytest.mark.parametrize("argv,error,message", [
        # a matrix literal rejects a token as it rejects "x"
        (("hnf", "--matrix", "1_000 2"), "value",
         "invalid literal for int() with base 10: '1_000'"),
        (("hnf", "--matrix", "1 2; 3 \u0664"), "value",
         "invalid literal for int() with base 10: '\u0664'"),
        (("hnf", "--matrix", "1 x; 1_0 2"), "value",
         "invalid literal for int() with base 10: 'x'"),
        (("hnf", "--matrix", "1_0 x; 1 2"), "value",
         "invalid literal for int() with base 10: '1_0'"),
        (("orbit", "--weights", "\u0661 2"), "usage",
         "invalid integer vector: invalid literal for int() with base 10: '\u0661'"),
        (("oracle-closedness", "--weights", "1 1", "--zeros", "1_0"), "usage",
         "invalid zero pattern: invalid literal for int() with base 10: '1_0'"),
        (("roots", "--dim", "1_0", "--degree", "1"), "usage",
         "argument --dim: invalid int value: '1_0'"),
        (("roots", "--dim", "2", "--degree", "\uff11"), "usage",
         "argument --degree: invalid int value: '\uff11'"),
        (("oracle-torsion-count", "--weights", "1 1", "--modulus", "1_0"), "usage",
         "argument --modulus: invalid int value: '1_0'"),
        (("oracle-lattice-equal", "--a", "1", "--b", "1", "--bound", "\u0663"), "usage",
         "argument --bound: invalid int value: '\u0663'"),
    ])
    def test_integer_tokens_are_ascii_digits(self, capsys, argv, error, message):
        code = main(list(argv))
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out) == {"schema_version": 1, "ok": False,
                                   "error": error, "message": message}
        assert err == f"diagtorus: {message}\n"

    def test_integer_tokens_keep_sign_and_leading_zeros(self, capsys):
        # the separators are what str.split takes, non-ASCII spaces included
        assert cli._parse_vector("+1 -02\u2003007") == (1, -2, 7)
        assert cli._parse_matrix_text("+1 -02;\u3000-0 007").entries == ((1, -2), (0, 7))
        assert cli._parse_zeros("1,+2 03") == {1, 2, 3}
        code, out = run(capsys, "roots", "--dim", "+2", "--degree", "01")
        assert code == 0 and json.loads(out)["result"]

    @pytest.mark.parametrize("argv,message", [
        (("oracle-lattice-equal", "--a", "1 0", "--b", "2 0", "--bound", "-1"),
         "bound must be >= 0"),
        (("oracle-closedness", "--weights", "1 -1", "--bound", "-1"),
         "bound must be >= 1"),
        (("oracle-closedness", "--weights", "1 -1", "--bound", "0"),
         "bound must be >= 1"),
    ])
    def test_oracle_bound_out_of_range_exits_1(self, capsys, argv, message):
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload == {"schema_version": 1, "ok": False,
                           "error": "value", "message": message}

    def test_precondition_violation_exits_2(self, capsys):
        for argv in [
            ("canonical", "--context", "aut3-torus", "--weights", "2 4 6"),
            ("canonical", "--context", "autn-codim1", "--weights", "0 0"),
            ("lattice-equal", "--a", "1 2", "--b", "1 2 3"),
            ("oracle-torsion-count", "--weights", "1 1 1 1 1 1 1 1",
             "--modulus", "10"),
        ]:
            code, out = run(capsys, *argv)
            assert code == 2, argv
            payload = json.loads(out)
            assert payload["ok"] is False
            assert "error" in payload and "message" in payload

    @pytest.mark.parametrize("context,error", [
        ("autn-codim1", "ZeroVector"),
        ("aut3-torus", "DimensionMismatch"),
        ("crn-codim1", "ZeroVector"),
    ])
    def test_canonical_empty_weights_exit_2(self, capsys, context, error):
        # an empty --weights is given, so it is the empty vector, not a
        # missing flag
        code, payload = run_json(capsys, "canonical", "--context", context,
                                 "--weights", "")
        assert code == 2
        assert payload["ok"] is False and payload["error"] == error

    @pytest.mark.parametrize("a,b,error", [
        ("1 2", "1 2 3", "DimensionMismatch"),
        ("1 2 3", "0 1", "DimensionMismatch"),
        ("0 0", "0 0", "ZeroVector"),
    ])
    def test_conjugate_codim1_checks_lengths_first(self, capsys, a, b, error):
        code, payload = run_json(capsys, "conjugate", "--group", "autn-codim1",
                                 "--a", a, "--b", b)
        assert code == 2
        assert payload["ok"] is False and payload["error"] == error

    @pytest.mark.parametrize("argv,message", [
        (("oracle-closedness", "--weights", "1 2", "--zeros", "0"),
         "zero pattern indices out of range"),
        (("oracle-closedness", "--weights", "1 2", "--zeros", "3"),
         "zero pattern indices out of range"),
        (("oracle-lattice-equal", "--a", "1 2", "--b", "1 2 3"),
         "lattices live in different ambient dimensions"),
        (("oracle-perm-sign", "--a", "1 2", "--b", "1 2 3"),
         "weight vectors have different lengths"),
    ])
    def test_oracle_dimension_mismatch_exits_2(self, capsys, argv, message):
        code, payload = run_json(capsys, *argv)
        assert code == 2
        assert payload == {"schema_version": 1, "ok": False,
                           "error": "DimensionMismatch", "message": message}

    @pytest.mark.parametrize("entry", ["1.9", "true", '"3"'])
    def test_matrix_json_rejects_non_integers(self, capsys, entry):
        obj = '{"rows":1,"cols":2,"entries":[[%s,2]]}' % entry
        code, payload = run_json(capsys, "hnf", "--matrix-json", obj)
        assert code == 1
        assert payload["ok"] is False and payload["error"] == "usage"

    @pytest.mark.parametrize("obj", [
        '{"rows":true,"cols":2,"entries":[[1,2]]}',
        '{"rows":1,"cols":2.0,"entries":[[1,2]]}',
        '{"rows":1,"cols":2,"entries":"12"}',
        '{"rows":0,"cols":0,"entries":[]}',
        '[1, 2]',
    ])
    def test_matrix_json_rejects_bad_shapes(self, capsys, obj):
        code, payload = run_json(capsys, "snf", "--matrix-json", obj)
        assert code == 1
        assert payload["error"] == "usage"

    def test_zero_row_snf_has_empty_u(self, capsys):
        code, payload = run_json(capsys, "snf", "--matrix-json",
                                 '{"rows":0,"cols":3,"entries":[]}')
        assert code == 0
        assert payload["result"]["U"] == {"rows": 0, "cols": 0, "entries": []}

    @pytest.mark.parametrize("command", ["snf", "isotype"])
    def test_oversized_output_exits_2(self, capsys, command):
        # p and q are coprime with about 3,000 digits each; their lcm passes
        # the interpreter's 4,300-digit int-to-str limit
        p = 10**2999 + 7
        q = p + 1
        code, out = run(capsys, command, "--matrix", f"{p} 0; 0 {q}")
        assert code == 2
        assert out.count("\n") == 1
        payload = json.loads(out)
        assert payload["ok"] is False and payload["error"] == "TooLarge"

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0

    def test_payload_is_always_json(self, capsys):
        for argv in [("snf", "--matrix", "1"), ("hnf", "--matrix", ";"),
                     ("canonical", "--context", "autn-codim1", "--weights", "0")]:
            _, out = run(capsys, *argv)
            json.loads(out)


class TestInProcessCalls:
    def test_no_state_leaks_between_calls(self, capsys, monkeypatch):
        code, _ = run(capsys, "canonical", "--context", "crn", "--matrix", "2 4")
        assert code == 0
        code, payload = run_json(capsys, "canonical", "--context", "autn-codim1")
        assert code == 1 and payload["error"] == "usage"
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2; 3 4"))
        code, _ = run(capsys, "hnf", "--stdin")
        assert code == 0
        code, payload = run_json(capsys, "hnf")
        assert code == 1 and payload["message"] == "missing --matrix"

    @pytest.mark.parametrize("value", [object(), argparse.Namespace(x=1), IsoType])
    def test_emit_prints_only_dataclass_instances(self, capsys, value):
        with pytest.raises(TypeError):
            cli._emit({"x": value})
        assert capsys.readouterr().out == ""
        cli._emit({"x": IsoType(1, (2,))})
        assert capsys.readouterr().out == '{"x":{"factors":[2],"torus_rank":1}}\n'


def declared(name):
    """Each flag the subcommand declares, with its add_argument keywords; a
    matrix operand stands for its --x form."""
    for arg in cli._COMMANDS[name][1]:
        yield (f"--{arg}", {}) if isinstance(arg, str) else arg


def valid_argv(name, replace=()):
    """An argv the subcommand's parser accepts, with the value of each flag
    in replace swapped for the one given there (None drops the flag)."""
    argv = [name]
    for flag, keywords in declared(name):
        value = dict(replace).get(flag, keywords.get("choices", ["1"])[-1])
        if value is not None:
            argv += [flag, value]
    return argv


def invalid_argvs(name):
    yield valid_argv(name) + ["--bogus", "1"]
    for flag, keywords in declared(name):
        if keywords.get("required"):
            yield valid_argv(name, {flag: None})
        if "choices" in keywords:
            yield valid_argv(name, {flag: "no-such-choice"})
        if "type" in keywords:  # every typed option takes integers
            yield valid_argv(name, {flag: "x"})


def parse_error(parser, argv) -> str:
    with pytest.raises(argparse.ArgumentError) as info:
        parser.parse_args(argv)
    return str(info.value)


@pytest.fixture
def parsers_built(monkeypatch):
    """The prog of each argument parser built during the test, in order; a
    subparser counts as one, under its own prog."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def full_parser_progs():
    """What building the full parser adds to parsers_built."""
    return ["diagtorus", *(f"diagtorus {name}" for name in cli._COMMANDS)]


def without_command(namespace):
    """The full parser's namespace without its command, which no handler
    reads."""
    fields = vars(namespace).copy()
    del fields["command"]
    return argparse.Namespace(**fields)


@pytest.mark.parametrize("name", list(cli._COMMANDS))
class TestOneSubcommandParser:
    """main reads argv[1:] from the named subcommand's flag table, or else
    parses it with the subcommand's own parser; both must answer as the full
    parser does on all of argv."""

    def test_same_namespace(self, name):
        argv = valid_argv(name)
        assert cli._parser_for(name).parse_args(argv[1:]) == \
            without_command(cli.build_parser().parse_args(argv))
        assert cli._read_flags(name, argv[1:]) == cli._parser_for(name).parse_args(argv[1:])

    def test_same_errors(self, name):
        for argv in invalid_argvs(name):
            assert parse_error(cli._parser_for(name), argv[1:]) == \
                parse_error(cli.build_parser(), argv), argv
            assert cli._read_flags(name, argv[1:]) is None, argv

    def test_same_help(self, capsys, name):
        helps = []
        for parser, argv in ((cli._parser_for(name), ["--help"]),
                             (cli.build_parser(), [name, "--help"])):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith(f"usage: diagtorus {name} ")


# values that argparse reads as values, as options, or not at all, and
# values that a type or a choice rejects
VALUES = ["1 2", "-1", "-1 2", "-1-2", "-h 2", "--x", "", "\u0661", "1", "x"]


def argv_tokens(name):
    """Argument lists for subcommand name: runs of its flags, each with a
    value or alone, their abbreviations and --flag=value forms, '--', -h and
    VALUES."""
    flags = [flag for flag, _ in cli._declared(name)]
    values = VALUES + [c for _, keywords in cli._declared(name)
                       for c in keywords.get("choices", ())]
    singles = flags + ["--", "-h", "--help"] + values
    singles += [flag[:k] for flag in flags for k in (3, len(flag) - 1)]
    singles += [f"{flag}={value}" for flag in flags for value in ("1", "-1", "")]
    pair = st.tuples(st.sampled_from(flags), st.sampled_from(values)).map(list)
    single = st.sampled_from(singles).map(lambda token: [token])
    return st.lists(st.one_of(pair, pair, single), max_size=6).map(
        lambda parts: [token for part in parts for token in part])


def argparse_fields(name, argv):
    """vars() of what the subcommand's parser returns for argv, or None when
    it raises a usage error or exits with its help."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return vars(cli._parser_for(name).parse_args(argv))
    except (argparse.ArgumentError, SystemExit):
        return None


@pytest.mark.parametrize("name", list(cli._COMMANDS))
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_flag_table_answers_as_argparse(name, data):
    argv = data.draw(argv_tokens(name))
    expected = argparse_fields(name, argv)
    table = cli._read_flags(name, argv)
    if expected is None:
        assert table is None
    elif table is not None:
        assert vars(table) == expected


@pytest.fixture
def fresh_parsers():
    """main's parser cache, empty at the start and at the end of the test."""
    cli._parser_for.cache_clear()
    yield
    cli._parser_for.cache_clear()


@pytest.mark.usefixtures("fresh_parsers")
class TestParserPerProcess:
    def test_main_builds_only_the_named_subcommand(self, capsys, parsers_built):
        for _ in range(3):
            code, out = run(capsys, "hnf", "--matrix", "1 2")
            assert (code, out) == (0, golden({"rows": 1, "cols": 2, "entries": [[1, 2]]}))
            code, out = run(capsys, "hnf", "--bogus")
            assert code == 1 and json.loads(out)["error"] == "usage"
            code, out = run(capsys, "hnf", "--help")
            assert code == 0 and out.startswith("usage: diagtorus hnf ")
        # the one standalone parser, and no full parser around it
        assert parsers_built == ["diagtorus hnf"]

    def test_only_help_and_errors_build_a_parser(self, capsys, parsers_built):
        for name in cli._COMMANDS:
            main(valid_argv(name))
        assert parsers_built == []
        for name in cli._COMMANDS:
            assert main([name, "--help"]) == 0
            assert main(valid_argv(name) + ["--bogus", "1"]) == 1
        # one standalone parser for each subcommand's help and error runs
        assert parsers_built == [f"diagtorus {name}" for name in cli._COMMANDS]

    def test_no_command_gets_the_full_parser(self, capsys, parsers_built):
        def usage_error(*argv):
            assert main(list(argv)) == 1
            out, err = capsys.readouterr()
            payload = json.loads(out)
            assert payload["error"] == "usage"
            assert err == f"diagtorus: {payload['message']}\n"
            return payload["message"]

        for _ in range(2):
            assert usage_error() == "the following arguments are required: command"
            message = usage_error("no-such-command")
            assert message.startswith("argument command: invalid choice: 'no-such-command'")
            assert all(name in message for name in cli._COMMANDS)
            assert usage_error("--bogus", "hnf") == "unrecognized arguments: --bogus"
            assert main(["--help"]) == 0
            assert capsys.readouterr().out == cli.build_parser().format_help()
        # one full parser for all eight main calls, one for each reference
        assert parsers_built == full_parser_progs() * 3

    def test_build_parser_is_fresh(self, parsers_built):
        assert cli.build_parser() is not cli.build_parser()
        assert parsers_built == full_parser_progs() * 2

    def test_reused_parsers_answer_as_fresh_ones(self, capsys, monkeypatch):
        argvs = [[], ["--help"], ["no-such-command"], ["hnf", "--matrix", "1 2; 3 4"],
                 ["lattice-equal", "--a", "1 2", "--b", "1 2 3"]]
        for name in cli._COMMANDS:
            argvs += [valid_argv(name), *invalid_argvs(name),
                      [name], [name, "--help"], [name, "--stdin"]]

        def outcome(argv):
            monkeypatch.setattr("sys.stdin", io.StringIO("1 2; 3 4"))
            code = main(list(argv))
            out, err = capsys.readouterr()
            return code, out, err

        first = []
        for argv in argvs:
            cli._parser_for.cache_clear()
            first.append(outcome(argv))
        assert {code for code, _, _ in first} == {0, 1, 2}
        rng = random.Random(14)
        for _ in range(2):
            order = rng.sample(range(len(argvs)), len(argvs))
            for i in order:
                assert outcome(argvs[i]) == first[i], argvs[i]


def test_module_entry_point():
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "diagtorus", *argv],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)

    proc = run_module("hnf", "--matrix", "1 2; 3 4")
    assert (proc.returncode, proc.stdout) == (
        0, golden({"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]}))
    proc = run_module("canonical", "--context", "autn-codim1", "--weights", "0 0")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "ZeroVector"
