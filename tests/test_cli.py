"""Tests for the command line front end."""

import json
import os

import numpy as np
import pytest

from lgcardy import cli
from lgcardy.bundle import assemble_potential, corrupt_model, verify_bundle
from lgcardy.cli import main, parse_branch, parse_complex_list
from lgcardy.landau_ginzburg import build_quaternion_model
from lgcardy.moduli import wdvv_check
from lgcardy.tensor_series import series_to_dict

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
    capsys.readouterr()


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


def test_build_report_stays_small_at_n8(capsys):
    # the boundary algebra is written block by block: 64 entries per
    # quaternion block, not the dense (4n)^3 tensor (2.26 MB of JSON)
    a = "--a=" + " ".join("%r,%r" % (0.3 * k - 1.0, 0.1 * k) for k in range(8))
    code, out = _run(capsys, ["build", "--n", "8", a])
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
