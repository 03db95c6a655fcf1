import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref

import pytest
from click.testing import CliRunner

import oracle

import tdcodes
from tdcodes.cli import main
from tdcodes.gf import make_field


@pytest.fixture
def runner():
    return CliRunner()


def test_construct_json(runner):
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "2",
                               "--parity", "1"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["k"] == 7 and data["n"] == 15 and data["parity"] == 1


def test_construct_json_formats_no_pretty_text(runner, monkeypatch):
    from tdcodes import cyclic
    args = ["construct", "--q", "4", "--m", "3", "--parity", "1"]
    want = runner.invoke(main, args).stdout

    def refuse(*a, **k):
        raise AssertionError("pretty text formatted for JSON output")

    monkeypatch.setattr(cyclic, "poly_pretty", refuse)
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout == want


def test_construct_pretty_prints_the_reference_generator(runner):
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "3",
                               "--parity", "0", "--pretty"])
    assert res.exit_code == 0
    assert "x^31 + x^30 + w^2 x^29" in res.stdout


def test_construct_extended_summary(runner):
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "3",
                               "--variant", "extended"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["n"] == 64 and data["k"] == 32


@pytest.fixture
def no_generator_matrix(monkeypatch):
    # a k x n matrix is built only by the distance engine, as a systematic
    # form, and reduced only by row_reduce: refuse the searches and both
    from tdcodes import cyclic, distance

    def refuse(*args, **kwargs):
        raise AssertionError("a distance search ran or a k x n matrix was built")

    for name in ("exact_distance", "sampled_upper", "_systematic"):
        monkeypatch.setattr(distance, name, refuse)
    monkeypatch.setattr(cyclic, "row_reduce", refuse)


@pytest.mark.parametrize("args,stdout", [
    (["construct", "--q", "4", "--m", "3", "--variant", "extended"],
     '{"base_n":63,"k":32,"m":3,"n":64,"parity":0,"q":4,'
     '"variant":"extended"}\n'),
    (["construct", "--q", "8", "--m", "3", "--variant", "extended", "--pretty"],
     "extended code: [512, 256] over GF(8)\n"),
    (["verify", "--id", "thm16", "--q", "4", "--m", "5", "--format", "json"],
     '{"checks":[{"claim":"pair has parameters [n, (n+1)/2]",'
     '"detail":"[1023, 512]","status":"pass"},'
     '{"claim":"extension has parameters [n+1, (n+1)/2]",'
     '"detail":"[1024, 512]","status":"pass"},'
     '{"claim":"even-like codes have parameters [n, (n-1)/2]",'
     '"detail":"","status":"pass"},'
     '{"claim":"distance bound q^((m-1)/2) + 2q - 1",'
     '"detail":"d >= 23","status":"pass"}],"id":"thm16","m":5,"q":4}\n'),
], ids=["extended", "extended-pretty", "thm16"])
def test_structure_commands_build_no_generator_matrix(runner, no_generator_matrix,
                                                      args, stdout):
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    assert res.stdout == stdout


@pytest.mark.parametrize("claim,m", [("thm2", 3), ("thm3", 4)])
def test_structure_suites_build_no_generator_matrix(runner, no_generator_matrix,
                                                    claim, m):
    res = runner.invoke(main, ["verify", "--id", claim, "--q", "4",
                               "--m", str(m)])
    assert res.exit_code == 0, res.output
    assert res.stdout.count("[pass]") == 4


def test_construct_is_byte_identical_across_runs(runner):
    args = ["construct", "--q", "4", "--m", "2", "--parity", "0"]
    out1 = runner.invoke(main, args).stdout
    out2 = runner.invoke(main, args).stdout
    assert out1 == out2


def test_construct_field_spec_file(runner, tmp_path):
    spec = {"s": 2, "m": 3, "base_modulus": [1, 1, 1],
            "ext_modulus": [[2], [1], [1], [1]]}
    path = tmp_path / "field.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "3",
                               "--field-spec", str(path)])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["generator_poly"][:4] == [1, 0, 2, 3]


def test_construct_bad_field_spec_exits_3(runner, tmp_path):
    spec = {"s": 2, "m": 2, "base_modulus": [1, 0, 1],  # reducible
            "ext_modulus": [[2], [1], [1]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "2",
                               "--field-spec", str(path)])
    assert res.exit_code == 3


@pytest.mark.parametrize("content,reason", [
    ("not json", "malformed"), ('{"s": 2}', "no 'base_modulus' entry"),
    ("[1, 2]", "malformed"),
    ('{"s": 2, "m": 3, "base_modulus": "x", "ext_modulus": []}', "malformed")])
@pytest.mark.parametrize("command", [["construct"], ["verify", "--id", "thm2"],
                                     ["distance"]])
def test_unreadable_field_spec_file_exits_3(runner, tmp_path, command, content,
                                            reason):
    path = tmp_path / "spec.json"
    path.write_text(content)
    res = runner.invoke(main, command + ["--q", "4", "--m", "3",
                                         "--field-spec", str(path)])
    assert res.exit_code == 3, res.output
    assert "field construction failed: the field-spec file" in res.stderr
    assert reason in res.stderr
    assert "Traceback" not in res.output
    res = runner.invoke(main, command + ["--q", "4", "--m", "3",
                                         "--field-spec", str(tmp_path)])
    assert res.exit_code == 2 and "is a directory" in res.stderr


def test_construct_warns_for_binary_alphabet(runner):
    res = runner.invoke(main, ["construct", "--q", "2", "--m", "3"])
    assert res.exit_code == 0
    assert "exploratory" in res.stderr


def test_construct_usage_error(runner):
    res = runner.invoke(main, ["construct", "--q", "5", "--m", "2"])
    assert res.exit_code == 2
    # q = 0 has s = -1: the range is checked before 1 << s is formed
    for cmd in ("construct", "inspect", "bound", "verify", "distance"):
        args = [cmd, "--q", "0", "--m", "3"] + (["--id", "thm2"] if cmd == "verify" else [])
        res = runner.invoke(main, args)
        assert res.exit_code == 2, cmd
        assert res.stdout == "", cmd
        assert "--q must be a power of two in 2..256, got 0" in res.stderr, cmd
        assert "Traceback" not in res.output, cmd
    # m below 2: inspect refuses it as bound and verify do, with no traceback
    for m in ("1", "0"):
        res = runner.invoke(main, ["inspect", "--q", "4", "--m", m])
        assert res.exit_code == 2, m
        assert f"m must be at least 2, got {m}" in res.stderr
        assert "Traceback" not in res.output


def test_max_n_guard(runner, monkeypatch):
    monkeypatch.setenv("TD_MAX_N", "100")
    for args in (["construct", "--q", "4", "--m", "4"],
                 ["verify", "--id", "lemma1", "--q", "4", "--m", "4"],
                 ["verify", "--id", "lemma6", "--q", "4", "--m", "4"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert "TD_MAX_N" in res.stderr, args


def test_field_limit_guard(runner, monkeypatch, tmp_path):
    # with TD_MAX_N out of the way, a command that builds a field past
    # q^m = 2^22 exits 2 naming q^m and the limit, before it reads a
    # field-spec file; a bad field-spec file inside the limit still exits 3
    monkeypatch.setenv("TD_MAX_N", str(1 << 40))
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not a field spec")
    for args, order in ((["construct", "--q", "4", "--m", "12"], "2^24"),
                        (["construct", "--q", "256", "--m", "4"], "2^32"),
                        (["verify", "--id", "thm2", "--q", "4", "--m", "13"], "2^26"),
                        (["construct", "--q", "4", "--m", "12",
                          "--field-spec", str(garbage)], "2^24")):
        res = runner.invoke(main, args)
        assert res.exit_code == 2, args
        assert f"q^m = {order} = " in res.stderr, args
        assert "over the field limit 2^22" in res.stderr, args
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"s": 2, "m": 3, "base_modulus": [1, 0, 1],
                               "ext_modulus": [[2], [1], [1], [1]]}))
    res = runner.invoke(main, ["construct", "--q", "4", "--m", "3",
                               "--field-spec", str(bad)])
    assert res.exit_code == 3


def test_verify_rejects_a_witness_over_the_length_cap(runner, monkeypatch):
    from tdcodes import coset

    def refuse(*args):
        raise AssertionError("a defining set was built")

    monkeypatch.setattr(coset, "build_T", refuse)
    for claim, m, length in (("lemma13", 16, 72057594037927936),
                             ("thm8", 15, 72057594037928446)):
        res = runner.invoke(main, ["verify", "--id", claim, "--q", "256",
                                   "--m", str(m)])
        assert res.exit_code == 2, claim
        assert f"has {length} members" in res.stderr, claim


@pytest.mark.parametrize("variant,size", [
    ("plain", "32769 x 65535"), ("extended", "32769 x 65536"),
    ("dual", "32766 x 65535")])
def test_distance_rejects_an_oversized_generator_matrix(runner, monkeypatch,
                                                        variant, size):
    from tdcodes import cyclic

    def refuse(*args):
        raise AssertionError("a generator polynomial was computed")

    monkeypatch.setattr(cyclic, "generator_polynomial", refuse)
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "8",
                               "--variant", variant])
    assert res.exit_code == 2
    assert f"the {size} systematic form needs" in res.stderr
    assert "bytes" in res.stderr


def _stdout(exact, lower, method, seed, upper, support, n):
    """The distance command's JSON line for a witness of length n whose
    nonzero symbols, on the support, are all 1."""
    word = ",".join("1" if i in support else "0" for i in range(n))
    return (f'{{"exact":{exact},"lower":{lower},"method":"{method}","seed":{seed},'
            f'"upper":{upper},"witness":[{word}]}}\n')


@pytest.mark.parametrize("args,stdout", [
    (["--q", "4", "--m", "2"],
     _stdout(4, 3, "exhaustive", "null", 4, {4, 9, 14, 15}, 16)),
    (["--q", "4", "--m", "3"],
     _stdout("null", 11, "sampled", 0, 16,
             {6, 12, 16, 18, 21, 32, 43, 44, 45, 47, 51, 52, 56, 59, 61, 62}, 64)),
    (["--q", "4", "--m", "3", "--parity", "1"],
     _stdout("null", 11, "sampled", 0, 16,
             {3, 5, 10, 11, 14, 24, 26, 31, 32, 35, 45, 47, 52, 53, 56, 63}, 64)),
    (["--q", "8", "--m", "2", "--parity", "1"],
     _stdout("null", 5, "sampled", 0, 10, {2, 9, 16, 23, 30, 37, 44, 51, 58, 63}, 64)),
], ids=["4-2-exact", "4-3-p0", "4-3-p1", "8-2-p1"])
def test_distance_of_the_extended_code_is_pinned(runner, args, stdout):
    # the [n + 1, k] extension: exact at (4,2), sampled past the enumeration
    # cap, from the forms of the SplitMix64 column orders, byte for byte
    res = runner.invoke(main, ["distance", "--variant", "extended"] + args)
    assert res.exit_code == 0, res.output
    assert res.stdout == stdout


def test_distance_rejects_a_negative_seed(runner):
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "3", "--seed", "-1"])
    assert res.exit_code == 2
    assert "Invalid value for '--seed'" in res.stderr
    assert "Traceback" not in res.output


def test_distance_rejects_trials_below_one(runner):
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "3",
                               "--trials", "0"])
    assert res.exit_code == 2
    assert "Invalid value for '--trials'" in res.stderr
    assert "Traceback" not in res.output


def test_distance_refuses_a_cap_past_the_enumeration_cap(runner):
    # 4^129 messages at (4,4) would be enumerated for hours: the cap stops
    # at 2^24 = 4^12, which (4,2) still reaches exactly
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "4",
                               "--cap", "16777217"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "Invalid value for '--cap'" in res.stderr
    assert "Traceback" not in res.output
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "2",
                               "--cap", "16777216"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert data["method"] == "exhaustive" and data["exact"] == 3


def test_verify_pass_and_exit_codes(runner):
    res = runner.invoke(main, ["verify", "--id", "thm2", "--q", "4", "--m", "3"])
    assert res.exit_code == 0
    assert res.stdout.count("[pass]") == 4
    res = runner.invoke(main, ["verify", "--id", "thm8", "--q", "4", "--m", "2"])
    assert res.exit_code == 2


def test_verify_thm3_is_unchanged_under_another_primitive_modulus(runner, tmp_path):
    # n = 65535: the hull claim needs g, which the modulus changes
    field = oracle.second_primitive_field(2, 8)
    assert field.ext_modulus != make_field(2, 8).ext_modulus
    path = tmp_path / "field.json"
    path.write_text(json.dumps(oracle.field_spec_to_json(field)))
    args = ["verify", "--id", "thm3", "--q", "4", "--m", "8", "--format", "json"]
    default = runner.invoke(main, args)
    other = runner.invoke(main, args + ["--field-spec", str(path)])
    assert default.exit_code == other.exit_code == 0
    checks = json.loads(default.stdout)["checks"]
    assert len(checks) == 4 and all(c["status"] == "pass" for c in checks)
    assert json.loads(other.stdout)["checks"] == checks


def test_verify_lemma1_json(runner):
    res = runner.invoke(main, ["verify", "--id", "lemma1", "--q", "8",
                               "--m", "2", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.stdout)
    assert all(c["status"] == "pass" for c in data["checks"])
    sizes = [c for c in data["checks"] if c["claim"].startswith("sizes")][0]
    assert "|T_0|=30" in sizes["detail"] and "|T_1|=32" in sizes["detail"]


def test_bound_lemma_report(runner):
    res = runner.invoke(main, ["bound", "--q", "4", "--m", "3", "--parity", "0"])
    assert res.exit_code == 0
    assert json.loads(res.stdout) == {"delta": 11, "b": 32, "a": 5,
                                      "i_lo": -3, "i_hi": 6, "source": "lemma7"}


def test_bound_search(runner):
    res = runner.invoke(main, ["bound", "--q", "4", "--m", "2", "--parity", "1",
                               "--search"])
    data = json.loads(res.stdout)
    assert data["delta"] == 5 and data["source"] == "exhaustive search"


def test_bound_search_past_the_exhaustive_limit_needs_a_budget(runner):
    res = runner.invoke(main, ["bound", "--q", "4", "--m", "9", "--search"])
    assert res.exit_code == 2
    assert "exhaustive search needs n <= 2^16; pass a budget" in res.stderr
    assert "Traceback" not in res.output
    res = runner.invoke(main, ["bound", "--q", "4", "--m", "9", "--search",
                               "--budget", "10"])
    assert res.exit_code == 0 and json.loads(res.stdout)["source"]


def test_distance_exact(runner):
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "2",
                               "--parity", "0"])
    data = json.loads(res.stdout)
    assert data["method"] == "exhaustive" and data["exact"] == 3
    assert data["lower"] <= data["exact"] <= data["upper"]


def test_distance_sampled_certificate(runner):
    res = runner.invoke(main, ["distance", "--q", "4", "--m", "3",
                               "--parity", "0", "--seed", "0",
                               "--trials", "2048"])
    data = json.loads(res.stdout)
    assert data["method"] == "sampled"
    assert data["lower"] == 11 and data["upper"] <= 15


def test_distance_sampled_witness_meeting_the_lower_bound_is_exact(runner):
    # [63,31]_8: q^k is past the cap, and a weight-9 witness meets the bound 9
    res = runner.invoke(main, ["distance", "--q", "8", "--m", "2", "--parity", "1"])
    data = json.loads(res.stdout)
    assert data["method"] == "sampled"
    assert data["lower"] == data["upper"] == data["exact"] == 9
    assert sum(1 for c in data["witness"] if c) == 9


def test_table_section_16(runner):
    # a repeated --s lists its rows once
    res = runner.invoke(main, ["table", "--section", "16", "--s", "2", "--s", "2",
                               "--format", "json"])
    rows = json.loads(res.stdout)
    assert len({(r["q"], r["m"], r["family"]) for r in rows}) == len(rows)
    pair = [r for r in rows if r["m"] == 3 and r["family"] == "pair"][0]
    assert (pair["n"], pair["k"], pair["d_bound"]) == (63, 32, 11)
    ext = [r for r in rows if r["m"] == 3 and r["family"] == "extended"][0]
    assert (ext["n"], ext["k"]) == (64, 32)


def test_table_section_18(runner):
    res = runner.invoke(main, ["table", "--section", "18", "--s", "2",
                               "--format", "json"])
    rows = json.loads(res.stdout)
    m2 = [(r["n"], r["k"], r["d_bound"]) for r in rows if r["m"] == 2]
    assert m2 == [(15, 9, 3), (15, 7, 3)]
    m4 = [(r["n"], r["k"], r["d_bound"]) for r in rows if r["m"] == 4]
    assert m4 == [(255, 129, 5), (255, 127, 5)]


@pytest.mark.parametrize("s,reason", [
    ("1", "the binary family is out of scope"),
    ("0", "q must be a power of two >= 4, got 1"),
    ("-1", "--s must be a base degree >= 2, got -1"),
    ("9", "9 is not in the range x<=8"),
    ("100", "100 is not in the range x<=8")])
def test_table_outside_the_bound_domain_is_a_usage_error(runner, s, reason):
    res = runner.invoke(main, ["table", "--section", "16", "--s", s])
    assert res.exit_code == 2
    assert reason in res.stderr
    assert "Traceback" not in res.output


def test_inspect(runner):
    res = runner.invoke(main, ["inspect", "--q", "4", "--m", "3",
                               "--parity", "0", "--format", "json"])
    data = json.loads(res.stdout)
    assert data["set_size"] == 31 and data["k"] == 32
    assert data["fixed_by_negation"] is False


def test_verify_claim_failure_exits_1(runner, monkeypatch):
    from tdcodes import verify as verify_mod
    broken = dict(verify_mod.SUITES)
    broken["thm2"] = lambda q, m, field=None: [
        verify_mod.ClaimCheck("forced failure", False, "")]
    monkeypatch.setattr(verify_mod, "SUITES", broken)
    res = runner.invoke(main, ["verify", "--id", "thm2", "--q", "4", "--m", "3"])
    assert res.exit_code == 1
    assert "FAIL" in res.stdout


def test_out_flag_writes_file(runner, tmp_path):
    out = tmp_path / "report.json"
    res = runner.invoke(main, ["bound", "--q", "4", "--m", "3",
                               "--parity", "0", "--out", str(out)])
    assert res.exit_code == 0
    assert json.loads(out.read_text())["delta"] == 11


def test_cli_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(tdcodes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import sys, tdcodes.cli; assert 'sympy' not in sys.modules"],
                   env=env, check=True)


@pytest.mark.parametrize("script", [
    "from tdcodes.coset import build_T\n"
    "from tdcodes.cyclic import code_from_T\n"
    "from tdcodes.distance import sampled_upper\n"
    "from tdcodes.gf import make_field\n"
    "code = code_from_T(make_field(2, 3), build_T(4, 3, 0))\n"
    "assert sampled_upper(code, trials=2048, seed=0).upper == 15",
    "from tdcodes.cli import main\n"
    "main.main(args=['distance', '--q', '4', '--m', '3'], standalone_mode=False)",
], ids=["sampled_upper", "cli"])
def test_the_sampled_distance_does_not_load_numpy_random(script):
    # the test process itself imports numpy.random, so each check runs in
    # an interpreter of its own
    src = os.path.dirname(os.path.dirname(tdcodes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script + "\nimport sys\n"
                    "assert 'numpy.random' not in sys.modules"],
                   env=env, check=True, stdout=subprocess.DEVNULL)


def test_in_process_calls_do_not_keep_their_output_alive():
    out = io.StringIO()
    ref = weakref.ref(out)
    with contextlib.redirect_stdout(out):
        main.main(args=["inspect", "--q", "4", "--m", "2"], standalone_mode=False)
    assert out.getvalue().startswith("T_(4,2;0)")
    del out
    gc.collect()
    assert ref() is None
