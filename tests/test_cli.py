"""Command line interface, driven in-process through main()."""

import importlib
import io
import json
import os
import sys

import pytest

from xmodlab.cli import main
from xmodlab.perm import cyclic, hom, symmetric
from xmodlab.xmod import (
    CrossedModule,
    identity_xmod,
    xmod_to_json,
    xmod_to_json_dict,
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("XMODLAB_LIMIT", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestClosedPipe:
    """A reader that stops early (``xmodlab table --json | head -1``) ends
    the command with status 1 and nothing on stderr."""

    def test_stream_without_descriptor(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["identify", "--json"]) == 1
        assert capsys.readouterr().err == ""

    def test_pipe_closed_by_its_reader(self, capsys, monkeypatch):
        read_end, write_end = os.pipe()
        os.close(read_end)
        stream = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["identify", "--json"]) == 1
        # the descriptor now points at the null device, so the flush at
        # exit (here: at close) no longer meets the closed pipe
        stream.close()
        assert capsys.readouterr().err == ""


class TestParsing:
    def test_no_arguments(self, capsys):
        rc, _, err = run(capsys, )
        assert rc == 2
        assert "usage" in err

    def test_help(self, capsys):
        rc, out, _ = run(capsys, "--help")
        assert rc == 0
        assert "induce" in out and "table" in out

    def test_unterminated_cycle(self, capsys):
        rc, _, err = run(capsys, "induce", "--sub", "(1,2")
        assert rc == 2
        assert "parse error" in err
        assert "position" in err

    def test_point_beyond_degree(self, capsys):
        rc, _, err = run(capsys, "identify", "--group", "(1,5)")
        assert rc == 2
        assert "parse error" in err

    def test_position_in_the_list_as_typed(self, capsys):
        rc, out, err = run(capsys, "identify", "--group", "(1,2),(1,9)")
        assert rc == 2
        assert out == ""
        assert "point 9 out of range 1..4 (at position 9)" in err

    def test_non_ascii_digit(self, capsys):
        # once a ValueError traceback from int()
        rc, out, err = run(capsys, "identify", "--group", "(1,\u00b2)")
        assert rc == 2
        assert out == ""
        assert "expected a point (at position 3)" in err

    def test_row_out_of_range(self, capsys):
        rc, _, err = run(capsys, "table", "--row", "8")
        assert rc == 2
        assert "1..7" in err

    @pytest.mark.parametrize("argv", [
        ("table", "--degree", "0"),
        ("identify", "--limit", "0"),
        ("iso", "--json", "--group-pair", "(1,2)", "--group-pair", "(1,2)"),
    ], ids=["table-degree", "identify-limit", "iso-json"])
    def test_option_the_command_does_not_read(self, capsys, argv):
        # each of these once parsed and was ignored: table has no group,
        # identify enumerates no cosets and iso prints text only
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert f"unrecognized arguments: {argv[1]}" in err

    @pytest.mark.parametrize("argv", [
        ("identify", "--group", "()"),
        ("induce", "--group", "()", "--sub", "()"),
        ("iso", "--group-pair", "()", "--group-pair", "()"),
    ], ids=["identify", "induce", "iso"])
    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_nonpositive_degree(self, capsys, argv, degree):
        rc, out, err = run(capsys, *argv, "--degree", degree)
        assert rc == 2
        assert out == ""
        assert f"--degree must be at least 1, got {degree}" in err

    @pytest.mark.parametrize("mode, option, value", [
        ("--xmod", "--degree", "4"),
        ("--xmod", "--group", "(1,2)"),
        ("--xmod", "--limit", "5"),
        ("--group-pair", "--group", "bogus"),
        ("--group-pair", "--limit", "0"),
    ])
    def test_option_the_iso_mode_does_not_read(self, capsys, tmp_path,
                                               mode, option, value):
        # --group-pair reads only --degree and --xmod reads none of the
        # three; each of these once exited 0
        if mode == "--xmod":
            path = tmp_path / "x.json"
            path.write_text(xmod_to_json(identity_xmod(cyclic(2))))
            pair = (mode, str(path), mode, str(path))
        else:
            pair = (mode, "(1,2)", mode, "(1,2)")
        rc, out, err = run(capsys, "iso", *pair, option, value)
        assert rc == 2
        assert out == ""
        assert f"iso {mode} does not read {option}" in err


class TestTable:
    def test_single_row(self, capsys):
        rc, out, _ = run(capsys, "table", "--row", "6")
        assert rc == 0
        assert out.startswith("row 6:")
        assert "C3xSL(2,3)" in out
        assert "pi2=C6" in out
        assert "pi1=C2" in out

    def test_verify_all_rows(self, capsys):
        rc, out, _ = run(capsys, "table", "--verify")
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.startswith("row ")]
        assert len(lines) == 7
        assert "verified: 7 row(s) match the reference values" in out

    def test_json_deterministic(self, capsys):
        rc1, out1, _ = run(capsys, "table", "--row", "5", "--json")
        rc2, out2, _ = run(capsys, "table", "--row", "5", "--json")
        assert rc1 == rc2 == 0
        assert out1 == out2
        (row,) = json.loads(out1)
        assert row["row"] == 5
        assert row["induced_order"] == 96
        assert row["pi2_invariants"] == [4]
        assert "seconds" not in row

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        module = importlib.import_module("xmodlab.induce")
        expected = list(module.TABLE_EXPECTED)
        expected[0] = (96,) + expected[0][1:]
        monkeypatch.setattr(module, "TABLE_EXPECTED", tuple(expected))
        rc, out, err = run(capsys, "table", "--row", "1", "--verify")
        assert (rc, out) == (1, "")
        assert err == "table mismatch: row 1: induced order 48, expected 96\n"


class TestInduce:
    def test_json_example(self, capsys):
        rc, out, _ = run(capsys, "induce", "--sub", "(1,2)(3,4)", "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["induced_order"] == 128
        assert data["pi2_invariants"] == [2, 2, 2, 4]
        assert data["pi1_name"] == "S3"
        assert data["order_law_ok"] is True

    def test_whole_group_text(self, capsys):
        rc, out, _ = run(capsys, "induce", "--sub", "(1,2),(1,2,3,4)")
        assert rc == 0
        assert "induced=S4" in out
        assert "pi2=1" in out
        assert "law |M|=|pi2|*|im| ok" in out

    def test_stats(self, capsys):
        rc, out, err = run(capsys, "induce", "--sub", "(1,2)(3,4)", "--json",
                           "--stats")
        assert rc == 0
        assert json.loads(out)["induced_order"] == 128
        assert err.startswith("stats: subgroup_order=2 ncosets=64 ")
        assert "degree=64;" in err
        # G presented on the generators of the six copies T0
        assert " generators=6 relators=48 " in err
        # P = Q: one coset of H, so M acts on S4's 4 points as well
        rc, _, err = run(capsys, "induce", "--sub", "(1,2),(1,2,3,4)",
                         "--stats")
        assert rc == 0
        assert err.startswith("stats: subgroup_order=24 ncosets=1 ")
        assert " generators=2 " in err and " degree=5" in err

    def test_limit_exceeded(self, capsys):
        rc, _, err = run(capsys, "induce", "--sub", "(1,2)(3,4)", "--limit", "10")
        assert rc == 3
        assert "coset limit exceeded" in err

    def test_validation_failure_exits_4(self, capsys, monkeypatch):
        # a module that fails its axioms after induction is an internal
        # error, not bad input
        from xmodlab.xmod import ValidationReport

        def failing(X):
            return ValidationReport(True, False,
                                    cm2_witness=(X.M.identity, X.M.identity))

        monkeypatch.setattr(importlib.import_module("xmodlab.induce"),
                            "validate", failing)
        rc, out, err = run(capsys, "induce", "--sub", "(1,2)")
        assert (rc, out) == (4, "")
        assert err == ("internal validation failure: induced module failed "
                       "axioms: CM1 ok, CM2 fails at m=(), m'=()\n")

    def test_env_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("XMODLAB_LIMIT", "10")
        rc, _, err = run(capsys, "induce", "--sub", "(1,2)(3,4)")
        assert rc == 3
        # an explicit flag wins over the environment
        rc, out, _ = run(capsys, "induce", "--sub", "(1,2)(3,4)",
                         "--limit", "65536", "--json")
        assert rc == 0
        assert json.loads(out)["induced_order"] == 128

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_nonpositive_limit_flag(self, capsys, limit):
        rc, out, err = run(capsys, "table", "--row", "1", "--limit", limit)
        assert rc == 2
        assert out == ""
        assert f"--limit must be at least 1, got {limit}" in err

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_nonpositive_limit_env(self, capsys, monkeypatch, limit):
        monkeypatch.setenv("XMODLAB_LIMIT", limit)
        rc, out, err = run(capsys, "table", "--row", "1")
        assert rc == 2
        assert out == ""
        assert f"XMODLAB_LIMIT must be at least 1, got {limit}" in err

    def test_env_limit_not_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("XMODLAB_LIMIT", "many")
        rc, _, err = run(capsys, "induce", "--sub", "(1,2)")
        assert rc == 2
        assert "XMODLAB_LIMIT" in err


class TestCheck:
    def test_round_trip_via_dump(self, capsys, tmp_path):
        path = tmp_path / "s3.json"
        rc, out, _ = run(capsys, "induce", "--degree", "3",
                         "--group", "(1,2),(1,2,3)", "--sub", "(1,2),(1,2,3)",
                         "--dump-xmod", str(path))
        assert rc == 0
        assert "induced=S3" in out
        rc, out, _ = run(capsys, "check", str(path))
        assert rc == 0
        assert out.strip() == "CM1 ok, CM2 ok"

    def test_broken_module_fails(self, capsys, tmp_path):
        S3 = symmetric(3)
        triv = cyclic(1)
        bad = CrossedModule(
            S3, triv, hom(S3, triv, [triv.identity, triv.identity]), []
        )
        path = tmp_path / "bad.json"
        path.write_text(xmod_to_json(bad))
        rc, out, _ = run(capsys, "check", str(path))
        assert rc == 1
        assert "CM1 ok" in out
        assert "CM2 fails at" in out

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
        assert rc == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("this is not json")
        rc, _, err = run(capsys, "check", str(path))
        assert rc == 2
        assert "parse error" in err

    @pytest.mark.parametrize("degree", ["x", 0, 2.5, True])
    def test_degree_not_a_positive_integer(self, capsys, tmp_path, degree):
        # every generator fits the truncated degree, so reading 2.5 as 2 or
        # true as 1 would pass silently
        data = xmod_to_json_dict(identity_xmod(cyclic(2)))
        data["M"]["degree"] = degree
        data["M"]["generators"] = ["()"]
        data["boundary"] = ["()"]
        data["action"] = [["()"]]
        path = tmp_path / "deg.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert out == ""
        assert f"degree must be an integer of at least 1, got {degree!r}" in err

    def test_generator_not_a_string(self, capsys, tmp_path):
        data = xmod_to_json_dict(identity_xmod(cyclic(2)))
        data["M"]["generators"] = [5]
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert out == ""
        assert "expected a permutation in cycle notation, got 5" in err

    @pytest.mark.parametrize("field", [
        "M.generators", "Q.generators", "boundary", "action", "action[0]",
    ])
    def test_list_field_not_an_array(self, capsys, tmp_path, field):
        # a string here was once split into characters, and the error named
        # a parenthesis instead of the field
        data = xmod_to_json_dict(identity_xmod(cyclic(2)))
        if field == "action[0]":
            data["action"][0] = "(1,2)"
        elif "." in field:
            group, key = field.split(".")
            data[group][key] = "(1,2)"
        else:
            data[field] = "(1,2)"
        path = tmp_path / "field.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert out == ""
        assert f"{field} must be a JSON array, got '(1,2)'" in err
        assert "unbalanced" not in err

    @pytest.mark.parametrize("field", ["crossed module", "M", "Q"])
    def test_value_not_an_object(self, capsys, tmp_path, field):
        data = xmod_to_json_dict(identity_xmod(cyclic(2)))
        if field == "crossed module":
            data = [1, 2]
        else:
            data[field] = [1, 2]
        path = tmp_path / "object.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert out == ""
        assert f"{field} must be a JSON object, got [1, 2]" in err

    def test_action_not_an_automorphism(self, capsys, tmp_path):
        data = xmod_to_json_dict(identity_xmod(symmetric(3)))
        data["action"][0] = ["()", "()"]
        path = tmp_path / "act.json"
        path.write_text(json.dumps(data))
        rc, out, err = run(capsys, "check", str(path))
        assert rc == 2
        assert out == ""
        assert "parse error: not a crossed module" in err
        assert "automorphisms of M" in err


class TestIdentify:
    def test_dihedral_text(self, capsys):
        rc, out, _ = run(capsys, "identify", "--group", "(1,2,3,4),(1,3)")
        assert rc == 0
        assert "order 8" in out
        assert "name D8" in out
        assert "abelianization C2xC2" in out
        assert "center order 2" in out
        assert "derived order 2" in out
        assert "2:5" in out

    def test_json(self, capsys):
        rc, out, _ = run(capsys, "identify", "--group", "(1,2,3,4),(1,3)",
                         "--json")
        assert rc == 0
        data = json.loads(out)
        assert data["name"] == "D8"
        assert data["fingerprint"]["order"] == 8
        assert data["fingerprint"]["abelianization"] == [2, 2]

    def test_unrecognized(self, capsys):
        # quaternion group of order 8: not cyclic, not dihedral, not in
        # the induced-module catalogue
        rc, out, _ = run(capsys, "identify", "--degree", "8", "--group",
                         "(1,2,3,4)(5,6,7,8),(1,5,3,7)(2,8,4,6)")
        assert rc == 0
        assert "order 8" in out
        assert "name unrecognized" in out


class TestIso:
    def test_sub_pair_isomorphic(self, capsys):
        rc, out, _ = run(capsys, "iso", "--sub", "(1,2)",
                         "--sub", "(1,2),(1,2,3)")
        assert rc == 0
        assert "isomorphic" in out.splitlines()[0]
        assert "f on M generators:" in out
        assert "g on Q generators:" in out
        assert "->" in out

    def test_sub_pair_not_isomorphic(self, capsys):
        rc, out, _ = run(capsys, "iso", "--sub", "(1,2)",
                         "--sub", "(1,2),(3,4)")
        assert rc == 1
        assert out.strip() == "not isomorphic"

    def test_group_pair_isomorphic(self, capsys):
        rc, out, _ = run(capsys, "iso", "--group-pair", "(1,2,3,4),(1,3)",
                         "--group-pair", "(1,3,2,4),(1,2)")
        assert rc == 0
        assert "isomorphic" in out.splitlines()[0]
        assert "->" in out

    def test_group_pair_not_isomorphic(self, capsys):
        rc, out, _ = run(capsys, "iso", "--group-pair", "(1,2,3,4)",
                         "--group-pair", "(1,2),(3,4)")
        assert rc == 1
        assert out.strip() == "not isomorphic"

    def test_xmod_files(self, capsys, tmp_path):
        paths = []
        for name, sub in [("a", "(1,2)"), ("b", "(1,3)")]:
            path = tmp_path / f"{name}.json"
            rc, _, _ = run(capsys, "induce", "--sub", sub,
                           "--dump-xmod", str(path))
            assert rc == 0
            paths.append(str(path))
        rc, out, _ = run(capsys, "iso", "--xmod", paths[0], "--xmod", paths[1])
        assert rc == 0
        assert "isomorphic" in out.splitlines()[0]

    def test_no_mode(self, capsys):
        rc, _, err = run(capsys, "iso")
        assert rc == 2
        assert "exactly one" in err

    def test_two_modes(self, capsys, tmp_path):
        rc, _, err = run(capsys, "iso", "--sub", "(1,2)", "--sub", "(1,3)",
                         "--group-pair", "(1,2)", "--group-pair", "(1,3)")
        assert rc == 2
        assert "exactly one" in err

    def test_pair_given_once(self, capsys):
        rc, _, err = run(capsys, "iso", "--group-pair", "(1,2,3,4)")
        assert rc == 2
        assert "exactly twice" in err

    def test_pair_given_three_times(self, capsys):
        rc, _, err = run(capsys, "iso", "--sub", "(1,2)", "--sub", "(1,3)",
                         "--sub", "(1,4)")
        assert rc == 2
        assert "exactly twice" in err
