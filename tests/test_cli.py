"""Tests for the command line front end."""

import enum
import json
import math
import os

import numpy as np
import pytest

from lgcardy import cli
from lgcardy.bundle import assemble_potential, corrupt_model, verify_bundle
from lgcardy.cli import main, parse_branch, parse_complex_list
from lgcardy.landau_ginzburg import build_closed, build_quaternion_model, model_to_dict
from lgcardy.cardy import verify_cardy_frobenius
from lgcardy.moduli import potential_from_dict, reconstruct_potential, wdvv_check
from lgcardy.polycore import DegenerateModelError
from lgcardy.tensor_series import ext_wdvv_check, series_to_dict

FROZEN = ["--n", "2", "--a", "-3,0 0,0"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_helpers():
    assert parse_complex_list("-3,0 0,1.5") == (complex(-3, 0), complex(0, 1.5))
    assert parse_complex_list("2") == (complex(2, 0),)
    assert parse_branch("+,-") == (1, -1)
    assert parse_branch("+1,-1,+") == (1, -1, 1)


def test_verify_cf_inline(capsys):
    code, out = _run(capsys, ["verify-cf"] + FROZEN)
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    byname = {e["name"]: e for e in report["residuals"]}
    assert byname["cardy_trace"]["value"] < 1e-9
    assert byname["cardy_coordinate"]["value"] < 1e-9
    assert all(e["pass"] for e in report["residuals"])
    assert report["skipped"] == []


def test_wdvv_n1_exits_zero_with_named_skip(capsys):
    code, out = _run(capsys, ["wdvv", "--n", "1"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["residuals"] == []
    assert report["skipped"][0]["name"] == "wdvv_associativity"
    assert "reason" in report["skipped"][0]


def test_wdvv_n3_passes(capsys):
    code, out = _run(capsys, ["wdvv", "--n", "3", "--samples", "10"])
    assert code == 0
    report = json.loads(out)
    byname = {e["name"]: e for e in report["residuals"]}
    assert byname["associativity"]["value"] < 1e-7


def test_potential_reports_quartic_ratio(capsys):
    code, out = _run(capsys, ["potential", "--n", "2", "--samples", "40"])
    assert code == 0
    report = json.loads(out)
    quartic = report["data"]["quartic_coefficient"]
    ratio = report["data"]["quartic_ratio_to_one_over_24"]
    assert np.isclose(quartic[0], -0.375, atol=1e-9)
    assert np.isclose(ratio[0], -9.0, atol=1e-7)


def test_chart_frozen_coordinates(capsys):
    code, out = _run(capsys, ["chart"] + FROZEN)
    assert code == 0
    report = json.loads(out)
    t = report["data"]["t"]
    assert np.isclose(t[0][0], 0.0, atol=1e-12)
    assert np.isclose(t[1][0], -1.0, atol=1e-12)
    assert all(e["pass"] for e in report["residuals"])


def test_chart_index_reversal_only_relabels():
    # the chart is computed in one labelling; the flag reverses what is shown
    rng = np.random.default_rng(16)
    for n in range(1, 9):
        for scale in (0.8, 1e3):
            a = tuple(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))
            plain, code = cli.run(cli.RunConfig("chart", n=n, a=a))
            rev, code_rev = cli.run(cli.RunConfig("chart", n=n, a=a, index_reversal=True))
            assert code_rev == code
            assert rev["config"].pop("index_reversal") and not plain["config"].pop("index_reversal")
            for key in ("t", "tangents"):
                assert rev["data"].pop(key) == plain["data"].pop(key)[::-1]
            del plain["timestamp"], rev["timestamp"]
            assert cli._dumps(rev) == cli._dumps(plain)


@pytest.mark.parametrize("n", range(1, 5))
def test_potential_index_reversal_only_relabels(n):
    plain, _ = cli.run(cli.RunConfig("potential", n=n))
    rev, _ = cli.run(cli.RunConfig("potential", n=n, index_reversal=True))
    want = sorted([row["exponents"][::-1], row["coeff"]]
                  for row in plain["data"]["potential"]["monomials"])
    got = [[row["exponents"], row["coeff"]] for row in rev["data"]["potential"]["monomials"]]
    assert got == want  # the coefficients bit for bit
    assert rev["data"]["potential"]["index_reversal"] is True
    assert rev["residuals"] == plain["residuals"]
    back = potential_from_dict(rev["data"]["potential"])
    assert back.terms == potential_from_dict(plain["data"]["potential"]).terms
    if n > 1:  # wdvv --index-reversal checks the same potential at its reversed points
        wdvv, code = cli.run(cli.RunConfig("wdvv", n=n, index_reversal=True))
        points = np.random.default_rng(42).uniform(-0.8, 0.8, size=(20, n))[:, ::-1]
        rep = wdvv_check(back, points, tol=1e-7)
        assert rep.passed and code == 0
        rows = {row["name"]: row["value"] for row in wdvv["residuals"]}
        assert all(rows[name] == value for name, value in rep.residuals.items())


def test_build_writes_model_usable_as_input(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    code, out = _run(capsys, ["build"] + FROZEN + ["--output", str(model_file)])
    assert code == 0
    report = json.loads(out)
    assert report["data"]["model_written_to"] == str(model_file)
    code2, out2 = _run(capsys, ["verify-cf", "--input", str(model_file)])
    assert code2 == 0
    assert json.loads(out2)["passed"] is True


def test_ext_wdvv_from_model_and_bundle(capsys):
    code, out = _run(capsys, ["ext-wdvv"] + FROZEN)
    assert code == 0
    report = json.loads(out)
    byname = {e["name"]: e for e in report["residuals"]}
    assert set(byname) == {"condition_%d" % k for k in (1, 3, 4, 5, 6, 7)}
    code, out = _run(capsys, ["bundle"] + FROZEN + ["--samples", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["data"]["routes_agree"] is True
    byname = {e["name"]: e for e in report["residuals"]}
    assert byname["frame_drift"]["value"] < 1e-8
    assert {"cardy", "unit", "form_symmetry"} <= set(byname)


def test_bundle_paper_scale_reports_drift_as_data(capsys):
    code, out = _run(capsys, ["bundle"] + FROZEN + ["--samples", "2", "--paper-scale"])
    assert code == 0
    report = json.loads(out)
    names = {e["name"] for e in report["residuals"]}
    assert "frame_drift" not in names
    assert report["data"]["frame_drift"] > 1e-5


def test_ext_wdvv_detects_corrupt_series_file(tmp_path, capsys):
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    series = assemble_potential(model, cf=corrupt_model(model, "cardy"))
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(series_to_dict(series)))
    code, out = _run(capsys, ["ext-wdvv", "--input", str(series_file)])
    assert code == 1
    report = json.loads(out)
    byname = {e["name"]: e for e in report["residuals"]}
    assert not byname["condition_7"]["pass"]
    assert byname["condition_7"]["value"] > 1e-3


def test_ext_wdvv_refuses_term_longer_than_truncation(tmp_path, capsys):
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps({
        "n": 1, "m": 0, "truncation": 3,
        "terms": [{"t": [1, 1, 1, 1], "s": [], "coeff": [1.0, 0.0]}],
    }))
    assert main(["ext-wdvv", "--input", str(series_file)]) == 2
    assert "bad series file" in capsys.readouterr().err


def test_branch_flag_builds_valid_model(capsys):
    code, out = _run(capsys, ["verify-cf"] + FROZEN + ["--branch", "+,-"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_exit_code_two_for_bad_arguments(tmp_path, capsys):
    assert main(["verify-cf", "--n", "2", "--a", "oops"]) == 2
    assert main(["verify-cf", "--n", "2", "--a", "1,0"]) == 2  # wrong count
    assert main(["verify-cf", "--input", "/nonexistent/path.json"]) == 2
    # refused up front: unsupported truncation, size, branch and sample counts
    assert main(["bundle"] + FROZEN + ["--t-degree", "2"]) == 2
    assert main(["ext-wdvv"] + FROZEN + ["--t-degree", "2"]) == 2
    # at truncation 3 conditions 3-7 judge no class: bundle refuses it,
    # ext-wdvv keeps it as the documented vacuous case
    assert main(["bundle"] + FROZEN + ["--t-degree", "3"]) == 2
    assert main(["ext-wdvv"] + FROZEN + ["--t-degree", "3"]) == 0
    # a negative seed is unusable, not a degenerate model
    assert main(["bundle"] + FROZEN + ["--seed", "-1"]) == 2
    assert main(["potential", "--n", "2", "--seed", "-1"]) == 2
    assert main(["wdvv", "--n", "2", "--seed=-1"]) == 2
    assert main(["chart", "--n", "0", "--a", "1,0"]) == 2
    assert main(["potential", "--n", "0"]) == 2
    assert main(["build"] + FROZEN + ["--branch", "+,+,+"]) == 2
    assert main(["potential", "--n", "2", "--samples", "0"]) == 2
    assert main(["wdvv", "--n", "2", "--samples", "0"]) == 2
    assert main(["bundle"] + FROZEN + ["--samples", "-1"]) == 2
    assert main(["wdvv", "--n", "2", "--samples", "-3"]) == 2
    # a loaded model keeps its own branch
    model_file = tmp_path / "model.json"
    assert main(["build"] + FROZEN + ["--output", str(model_file)]) == 0
    assert main(["verify-cf", "--input", str(model_file)]) == 0
    assert main(["verify-cf", "--input", str(model_file), "--branch", "+,-"]) == 2
    # only chart, potential and wdvv read the index convention
    for command in ("build", "verify-cf", "bundle", "ext-wdvv"):
        assert main([command] + FROZEN + ["--index-reversal"]) == 2
    assert main(["verify-cf", "--input", str(model_file), "--index-reversal"]) == 2
    assert main(["chart"] + FROZEN + ["--index-reversal"]) == 0
    # an option the command never reads is refused, not echoed and ignored
    assert main(["chart"] + FROZEN + ["--paper-scale"]) == 2
    assert main(["verify-cf"] + FROZEN + ["--t-degree", "9", "--samples", "4"]) == 2
    assert main(["chart"] + FROZEN + ["--input", "/nonexistent.json"]) == 2
    assert main(["potential", "--n", "2"] + FROZEN[2:]) == 2
    assert main(["build"] + FROZEN + ["--seed", "7"]) == 2
    # the file fixes the model, and a series file its truncation
    assert main(["verify-cf", "--input", str(model_file), "--n", "2"]) == 2
    assert main(["bundle", "--input", str(model_file)] + FROZEN[2:]) == 2
    assert main(["bundle", "--input", str(model_file), "--samples", "2"]) == 0
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(series_to_dict(assemble_potential(
        build_quaternion_model(n=2, a=(-3.0, 0.0))))))
    assert main(["ext-wdvv", "--input", str(series_file), "--t-degree", "5"]) == 2
    assert main(["ext-wdvv", "--input", str(series_file)]) == 0
    # a tolerance that is NaN, negative or infinite is refused; 0 is not
    for command in ("build", "chart", "verify-cf", "bundle", "ext-wdvv"):
        for bad in ("nan", "-1", "inf"):
            assert main([command] + FROZEN + ["--tol", bad]) == 2, (command, bad)
    assert main(["potential", "--n", "2", "--tol", "nan"]) == 2
    assert main(["wdvv", "--n", "2", "--tol=-inf"]) == 2
    assert main(["verify-cf"] + FROZEN + ["--tol", "0"]) == 1
    # so is a non-finite coefficient, which is not a degenerate model
    for command in ("build", "chart"):
        for bad in ("nan,0 0,0", "inf,0 0,0", "0,0 1,-inf"):
            capsys.readouterr()
            assert main([command, "--n", "2", "--a=" + bad]) == 2, (command, bad)
            assert "--a must be finite" in capsys.readouterr().err
    capsys.readouterr()
    # a non-finite series coefficient is refused, not judged or called degenerate
    payload = series_to_dict(assemble_potential(build_quaternion_model(n=2, a=(-3.0, 0.0))))
    [term] = [t for t in payload["terms"] if t["t"] == [] and t["s"] == [5, 5]]
    for bad in (float("nan"), float("inf")):
        term["coeff"][0] = bad
        series_file.write_text(json.dumps(payload))
        assert main(["ext-wdvv", "--input", str(series_file)]) == 2
        assert "bad series file" in capsys.readouterr().err
    # and so is a negative series size
    for n, m in ((-1, 0), (1, -2)):
        series_file.write_text(json.dumps({"n": n, "m": m, "truncation": 4, "terms": []}))
        assert main(["ext-wdvv", "--input", str(series_file)]) == 2
        assert "bad series file" in capsys.readouterr().err
    # each guard of the option parsers and the model sources, with its message
    junk_file = tmp_path / "junk.json"
    junk_file.write_text("{not json")
    for argv, message in (
            (["verify-cf", "--n", "1", "--a=1,2,3"], "bad complex value '1,2,3'"),
            (["verify-cf", "--n", "1", "--a= "], "empty coefficient list"),
            (["build"] + FROZEN + ["--branch", "x"], "bad branch entry 'x'"),
            (["verify-cf", "--input", str(junk_file)], "is not valid JSON"),
            (["verify-cf"], "need --n together with --a, or --input FILE"),
            (["chart", "--n", "2"], "chart needs --n together with --a"),
            (["potential"], "needs --n"),
            (["wdvv"], "needs --n")):
        assert main(argv) == 2, argv
        assert message in capsys.readouterr().err, argv


@pytest.mark.parametrize("payload, message", [
    ({"n": 1, "a": [1.0, 0.0]}, "a must be a list of n = 1 [re, im] pairs"),
    ({"n": 2, "a": [[-3.0, 0.0], [0.0]]}, "a must be a list of n = 2 [re, im] pairs"),
    ({"n": 2, "a": [[-3.0, 0.0]]}, "a must be a list of n = 2 [re, im] pairs"),
    ({"n": 2.5, "a": [[-3.0, 0.0], [0.0, 0.0]]}, "n must be an integer of at least 1, got 2.5"),
    ({"n": "2", "a": [[-3.0, 0.0], [0.0, 0.0]]}, "n must be an integer of at least 1, got '2'"),
    ({"n": True, "a": [[-3.0, 0.0]]}, "n must be an integer of at least 1, got True"),
    ({"n": 0, "a": []}, "n must be an integer of at least 1, got 0"),
])
def test_model_file_fields_are_checked_where_read(tmp_path, capsys, payload, message):
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(payload))
    assert main(["verify-cf", "--input", str(model_file)]) == 2
    err = capsys.readouterr().err
    assert "bad model file" in err and message in err


def _no_layout(monkeypatch):
    """Make every route to a series layout fail the test."""
    def no_layout(*args, **kwargs):
        raise AssertionError("a layout was built")
    for name in ("_assemble", "_conditions", "verify_bundle", "ext_wdvv_check"):
        monkeypatch.setattr(cli, name, no_layout)


# C(n + m + w, w) classes with w = t_degree - 4: 12,341 at n = 8, m = 32, t_degree 7
OVER_THE_CAP = "12341 series classes, more than %d" % cli.MAX_SERIES_CLASSES


def test_t_degree_beyond_the_class_cap_is_refused_before_any_layout(monkeypatch, capsys):
    _no_layout(monkeypatch)
    a = ["--a=" + " ".join(["0.1,0"] * 8)]
    for command in ("bundle", "ext-wdvv"):
        assert main([command, "--n", "8", "--t-degree", "7"] + a) == 2
        assert OVER_THE_CAP in capsys.readouterr().err
    # 861 classes at n = 8, t_degree 6 stay under the cap
    assert math.comb(8 + 32 + 2, 2) == 861 <= cli.MAX_SERIES_CLASSES
    cli._refuse_large_series(8, 32, 6)


def test_bundle_of_a_model_file_beyond_the_class_cap_is_refused(tmp_path, monkeypatch, capsys):
    model_file = tmp_path / "model.json"
    a = "--a=" + " ".join(["0.1,0"] * 8)
    assert main(["build", "--n", "8", a, "--output", str(model_file)]) == 0
    capsys.readouterr()
    _no_layout(monkeypatch)
    assert main(["bundle", "--input", str(model_file), "--t-degree", "7"]) == 2
    assert OVER_THE_CAP in capsys.readouterr().err


def test_series_file_beyond_the_class_cap_is_refused(tmp_path, monkeypatch, capsys):
    series_file = tmp_path / "series.json"
    term = {"t": [1, 1, 1], "s": [], "coeff": [1.0, 0.0]}
    series_file.write_text(json.dumps({"n": 8, "m": 32, "truncation": 7, "terms": [term]}))
    _no_layout(monkeypatch)
    assert main(["ext-wdvv", "--input", str(series_file)]) == 2
    assert OVER_THE_CAP in capsys.readouterr().err


def test_exit_code_three_for_degenerate_model(capsys):
    assert main(["verify-cf", "--n", "2", "--a", "0,0 0,0"]) == 3
    capsys.readouterr()


SEEDED3 = ["--n", "3", "--a=0.3,0.1 -0.7,0.2 0.5,-0.4"]


@pytest.mark.parametrize("argv", [
    ["build"] + SEEDED3, ["verify-cf"] + SEEDED3, ["chart"] + SEEDED3,
    ["bundle", "--samples", "2"] + SEEDED3, ["ext-wdvv"] + SEEDED3,
    ["bundle", "--samples", "2"] + FROZEN,
    ["potential", "--n", "2"], ["wdvv", "--n", "2"],
])
def test_tight_tol_fails_rows_instead_of_refusing_the_model(capsys, argv):
    # a healthy model under a residual tolerance below rounding gets
    # failing rows (exit 1), not a degeneracy (exit 3): the refinement
    # and residue guards do not move with --tol
    assert main(argv + ["--tol", "1e-30"]) == 1
    capsys.readouterr()


def test_reports_deterministic_modulo_timestamp(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    argv = ["bundle"] + FROZEN + ["--samples", "2", "--output", str(out_file)]
    assert main(argv) == 0
    first = [ln for ln in out_file.read_text().splitlines() if '"timestamp"' not in ln]
    assert main(argv) == 0
    second = [ln for ln in out_file.read_text().splitlines() if '"timestamp"' not in ln]
    capsys.readouterr()
    assert first == second


SEEDED8 = ["--n", "8", "--a=" + " ".join("%r,%r" % (0.3 * k - 1.0, 0.1 * k) for k in range(8))]

WRITER_CASES = [[command] + args for command in ("chart", "build", "verify-cf", "bundle", "ext-wdvv")
                for args in (FROZEN, SEEDED3, SEEDED8)] + [
    [command, "--n", n] for command in ("potential", "wdvv") for n in ("1", "2", "3")] + [
    [command, "--n", "4", "--index-reversal"] for command in ("potential", "wdvv")] + [
    ["bundle", "--t-degree", "5"] + FROZEN, ["chart", "--index-reversal"] + SEEDED3]


@pytest.mark.parametrize("argv", WRITER_CASES)
def test_report_writer_matches_json_dumps(argv):
    report, _ = cli.run(cli._config_from_args(cli._ARGPARSER.parse_args(argv)))
    assert cli._dumps(report) == json.dumps(report, indent=2)


def test_model_file_matches_json_dumps(tmp_path, capsys):
    model_file = tmp_path / "model.json"
    assert main(["build"] + FROZEN + ["--output", str(model_file)]) == 0
    capsys.readouterr()
    want = model_to_dict(build_quaternion_model(n=2, a=(-3.0, 0.0)))
    assert model_file.read_text() == json.dumps(want, indent=2) + "\n"


class Level(enum.IntEnum):
    HIGH = 2


def test_writer_matches_json_dumps_off_the_bulk_path():
    nan, inf = float("nan"), float("inf")
    obj = {
        "special": [nan, inf, -inf, 0.0, -0.0, 1e-320], "mixed": [1, 2.5, True, None],
        "pairs": [[1.0, nan], [inf, 2.0]], "one_pair": [[0.5, -1.5]], "int_pairs": [[0, 1]],
        "ragged": [[1.0, 2.0], [3.0]], "triples": [[1.0, 2.0, 3.0]], "overflow": [1e308, 1e308],
        "text": ["gr\u00fc\u00dfe \u03c1", 'say "hi"\n\tbye', ""], "empty": [[], {}, ()],
        "tuples": (1.0, (2.0, 3.0), [(4.0, 5.0)]), "nested": {"a": {"b": [[[1.0, 2.0]]]}},
        "np": [np.float64(0.1), [np.float64(0.2), 0.3]], 3: "int key", 0.5: "float key",
        None: "null key", False: "bool key", "np_value": np.float64(-2.5),
        np.float64(0.25): "np.float64 key", "enum": Level.HIGH,
        "signed_pairs": [[-0.0, 1e-320], [1e-320, -0.0]], "tiny_pair": [[-0.0, -1e-320]],
    }
    for value in (obj, [], {}, nan, "x", [1.0], [[1.0, 2.0]]):
        assert cli._dumps(value) == json.dumps(value, indent=2)


def test_build_report_stays_small_at_n8(capsys):
    # the boundary algebra is written block by block: 64 entries per
    # quaternion block, not the dense (4n)^3 tensor (2.26 MB of JSON)
    code, out = _run(capsys, ["build"] + SEEDED8)
    assert code == 0
    assert len(out.encode()) < 200_000
    cf = json.loads(out)["data"]["model"]["cf"]
    assert [len(cube) for cube in cf["b"]["structure"]] == [64] * 8
    assert [len(cube) for cube in cf["a"]["structure"]] == [1] * 8


REFERENCE_POTENTIALS = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "reference_potentials.json"
)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_potential_matches_reference_potentials(capsys, n):
    with open(REFERENCE_POTENTIALS) as fh:
        reference = json.load(fh)["potentials"][str(n)]["monomials"]
    want = {tuple(m["exponents"]): complex(*m["coeff"]) for m in reference}
    code, out = _run(capsys, ["potential", "--n", str(n)])
    assert code == 0
    monomials = json.loads(out)["data"]["potential"]["monomials"]
    got = {tuple(m["exponents"]): complex(*m["coeff"]) for m in monomials}
    assert got.keys() == want.keys()
    scale = max(1.0, max(abs(c) for c in want.values()))
    assert max(abs(got[e] - want[e]) for e in want) <= 1e-12 * scale


# a 1e3-scale n=8 model whose chart fails (the known absolute-tolerance defect)
LARGE_N8 = ["--n", "8", "--a=125.73,-703.735 -132.105,-1265.42 640.423,-623.274 104.9,41.326 "
            "-535.669,-2325.03 361.595,-218.792 1304,-1245.91 947.081,-732.267"]

VERDICT_CASES = {
    "build": [FROZEN, ["--n", "3", "--a=0.3,0.1 -0.7,0.2 0.5,-0.4", "--tol", "1e-17"]],
    "verify-cf": [FROZEN, FROZEN + ["--tol", "1e-30"]],
    "chart": [FROZEN, LARGE_N8],
    "potential": [["--n", "2", "--samples", "8"], ["--n", "2", "--samples", "8", "--tol", "1e-30"]],
    "wdvv": [["--n", "2", "--samples", "3"], ["--n", "2", "--samples", "3", "--tol", "1e-30"]],
    "ext-wdvv": [FROZEN, FROZEN + ["--t-degree", "5"]],
    "bundle": [FROZEN + ["--samples", "2"], FROZEN + ["--samples", "2", "--t-degree", "5"],
               FROZEN + ["--samples", "2", "--paper-scale"]],
}


def _report_index(command, name):
    """Which library report a row comes from: bundle concatenates the
    series conditions, the pointwise facts and the frame drift."""
    if command != "bundle" or name.startswith("condition_"):
        return 0
    return 2 if name == "frame_drift" else 1


@pytest.mark.parametrize("command", sorted(VERDICT_CASES))
def test_exit_code_and_passed_follow_the_rows(capsys, command):
    for args in VERDICT_CASES[command]:
        code, out = _run(capsys, [command] + args)
        report = json.loads(out)
        rows = report["residuals"] + report["margins"]
        assert rows
        assert report["passed"] == all(row["pass"] for row in rows)
        assert code == (0 if report["passed"] else 1)
        for kind in ("residuals", "margins"):
            keys = [(_report_index(command, r["name"]), r["name"]) for r in report[kind]]
            assert keys == sorted(keys)


@pytest.mark.parametrize("extra", [["--t-degree", "4"], ["--t-degree", "5"], ["--paper-scale"]])
def test_bundle_exit_code_is_the_library_verdict(capsys, extra):
    code, out = _run(capsys, ["bundle"] + FROZEN + ["--samples", "2"] + extra)
    rep = verify_bundle(
        build_quaternion_model(n=2, a=(-3.0, 0.0)),
        t_degree=5 if "5" in extra else 4,
        sample_points=2,
        paper_scale="--paper-scale" in extra,
        seed=42,
    )
    assert code == int(not rep.passed)
    residuals, margins = rep.entries()
    report = json.loads(out)
    assert report["residuals"] == residuals and report["margins"] == margins


def _frozen_model():
    return build_quaternion_model(n=2, a=(-3.0, 0.0))


def _wdvv_report():
    """wdvv --n 2 --samples 3: the check points drawn from --seed, the fit
    residual joined to the associativity rows, judged at 1e-7."""
    potential, fit = reconstruct_potential(2, seed=42)
    points = np.random.default_rng(42).uniform(-0.8, 0.8, size=(3, 2))
    rep = wdvv_check(potential, points, tol=1e-7)
    rep.residuals["fit_residual"] = fit
    return rep


# each CLI run beside the library call on the same inputs
SCHEMA_CASES = {
    "verify-cf": (["verify-cf"] + FROZEN, lambda: verify_cardy_frobenius(_frozen_model().cf)),
    "wdvv": (["wdvv", "--n", "2", "--samples", "3"], _wdvv_report),
    "ext-wdvv": (["ext-wdvv"] + FROZEN,
                 lambda: ext_wdvv_check(assemble_potential(_frozen_model()))),
    "bundle": (["bundle"] + FROZEN, lambda: verify_bundle(_frozen_model(), seed=42)),
    "bundle --paper-scale": (["bundle", "--paper-scale"] + FROZEN,
                             lambda: verify_bundle(_frozen_model(), paper_scale=True, seed=42)),
    "bundle --samples 0": (["bundle", "--samples", "0"] + FROZEN,
                           lambda: verify_bundle(_frozen_model(), sample_points=0, seed=42)),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_CASES))
def test_cli_report_is_the_library_verdict_block(capsys, case):
    argv, library = SCHEMA_CASES[case]
    _, out = _run(capsys, argv)
    report = json.loads(out)
    block = json.loads(json.dumps(library().to_dict()))
    assert list(block) == ["residuals", "margins", "data", "passed"]
    for key in ("residuals", "margins", "passed"):
        assert report[key] == block[key], key
    # the report's data leads, the command's own follows
    leading = list(report["data"])[:len(block["data"])]
    assert leading == list(block["data"])
    assert {key: report["data"][key] for key in leading} == block["data"]


def test_wdvv_tol_reaches_the_library_report(capsys, monkeypatch):
    reports = []

    def recording_wdvv_check(*args, **kwargs):
        reports.append(wdvv_check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "wdvv_check", recording_wdvv_check)
    code, out = _run(capsys, ["wdvv", "--n", "2", "--samples", "3", "--tol", "1e-3"])
    assert code == 0
    report = json.loads(out)
    [rep] = reports
    assert rep.tol == 1e-3 and "fit_residual" in rep.residuals
    assert {e["name"] for e in report["residuals"]} == set(rep.residuals)
    assert all(e["tol"] == 1e-3 for e in report["residuals"])


def test_parser_carries_nothing_from_one_call_to_the_next(capsys, monkeypatch):
    argv = ["chart"] + FROZEN
    _, first_out = _run(capsys, argv + ["--index-reversal", "--tol", "1e-3"])
    first = json.loads(first_out)["config"]
    assert first["index_reversal"] and first["tol"] == 1e-3
    # chart does not read --paper-scale, so bundle sets it
    _, bundle_out = _run(capsys, ["bundle"] + FROZEN + ["--samples", "2", "--paper-scale"])
    assert json.loads(bundle_out)["config"]["paper_scale"]
    code, out = _run(capsys, argv)
    monkeypatch.setattr(cli, "_ARGPARSER", cli._build_parser())
    fresh_code, fresh_out = _run(capsys, argv)
    second, fresh = json.loads(out), json.loads(fresh_out)
    del second["timestamp"], fresh["timestamp"]
    assert code == fresh_code and second == fresh
    assert not second["config"]["paper_scale"] and not second["config"]["index_reversal"]
    assert second["config"]["tol"] is None


def test_idempotent_residuals_match_the_einsum_reference():
    # two matrix products sum in another order than the einsum: the
    # residuals agree to the rounding of the summed terms
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for scale in (0.8, 1e3):
            try:
                closed = build_closed(n=n, a=tuple(scale * rng.standard_normal(n)))
            except DegenerateModelError:
                continue
            e, ((_, c),) = closed.idempotents, closed.pair.algebra.stacks
            want = np.einsum("xi,yj,ijk->xyk", e, e, c[0]) - np.eye(n)[:, :, None] * e[None]
            terms = np.einsum("xi,yj,ijk->xyk", abs(e), abs(e), abs(c[0])).max()
            got, unit = cli._idempotent_residuals(closed)
            assert abs(got - np.abs(want).max()) <= 4 * n * np.finfo(float).eps * terms
            assert unit == np.abs(e.sum(axis=0) - closed.pair.algebra.unit).max()
