"""Tests for the boundary frame bundle and the two-route verifier."""

import json

import numpy as np
import pytest

from lgcardy import bundle as bd
from lgcardy.bundle import (
    CORRUPTIONS,
    PREDICTED_CONDITION,
    assemble_potential,
    bundle_tensors,
    corrupt_model,
    flat_s_frame,
    verify_bundle,
)
from lgcardy.cli import main
from lgcardy.frobenius import FiniteAlgebra, quaternion_pair
from lgcardy.landau_ginzburg import build_quaternion_model
from lgcardy.moduli import canonical_chart, flat_chart
from lgcardy.polycore import DegenerateModelError, ToleranceConfig, poly_eval
from lgcardy.tensor_series import d_sss, quadratic_s_block


@pytest.fixture(scope="module")
def model():
    return build_quaternion_model(n=2, a=(-3.0, 0.0))


def test_frame_identity_at_base(model):
    frame = flat_s_frame(model, model.p)
    assert np.allclose(frame.scales, 1.0, atol=1e-12)
    assert frame.drift < 1e-12
    assert np.allclose(frame.roots, model.closed.roots)
    assert np.allclose(frame.rho, model.rho)


def test_frame_gram_constant_nearby(model):
    frame = flat_s_frame(model, (-3.03, 0.0))
    assert frame.drift < 1e-9
    # the scale factors themselves did move
    assert np.max(np.abs(frame.scales - 1.0)) > 1e-4


def test_paper_scale_drift_is_the_documented_mismatch(model):
    frame = flat_s_frame(model, (-3.03, 0.0), paper_scale=True)
    assert frame.drift > 1e-4
    expected = np.max(np.abs(2.0 * model.rho**2 / frame.rho - 2.0 * model.rho))
    assert np.isclose(frame.drift, expected, rtol=1e-10)


def test_frame_continuation_ambiguous_raises(model):
    # critical points of the target sit at +-i, equidistant from both
    # base critical points +-1
    with pytest.raises(DegenerateModelError, match="frame continuation failed"):
        flat_s_frame(model, (3.0, 0.0))


def test_canonical_chart_ambiguous_continuation_raises():
    # critical points +-i/sqrt(3), 1.15 apart; a unit step in one critical
    # value moves them 0.24, so each reference root's nearest and
    # second-nearest candidates differ by 0.99, within root_sep_tol = 1
    tol = ToleranceConfig(fd_step=1.0, root_sep_tol=1.0)
    with pytest.raises(DegenerateModelError, match="frame continuation failed"):
        canonical_chart(n=2, a=(1.0, 0.5), tol=tol)


def test_bundle_tensors_frozen_values(model):
    bt = bundle_tensors(model)
    chart = flat_chart(p=model.p)
    rho = model.rho
    for i in range(2):
        u0 = 4 * i
        assert np.isclose(bt.cB[u0, u0, u0], 2.0 * rho[i])
        # (I J) K = K K = -1
        assert np.isclose(bt.cB[u0 + 1, u0 + 2, u0 + 3], -2.0 * rho[i])
        for k in range(2):
            uval = poly_eval(chart.tangents[k], model.closed.roots[i])
            assert np.isclose(bt.cAB[k, u0], 2.0 * rho[i] * uval)
            assert np.allclose(bt.cAB[k, u0 + 1 : u0 + 4], 0.0)
    # cross-block entries vanish
    assert np.allclose(bt.cB[0:4, 4:8, :], 0.0)
    assert np.isclose(abs(bt.cAB[0, 4]), 2.0 / np.sqrt(6.0))


def test_series_quadratic_and_mixed_blocks_match_tensors(model):
    series = assemble_potential(model)
    bt = bundle_tensors(model)
    m = 8
    gram = model.cf.b.gram()
    qs = quadratic_s_block(series)
    assert np.allclose(qs, gram, atol=1e-12)
    for u in range(m):
        sign = 2.0 if u % 4 == 0 else -2.0
        assert np.isclose(series.coefficient((), (u, u)), sign * model.rho[u // 4])
    for k in range(2):
        for u in range(m):
            assert np.isclose(series.coefficient((k,), (u,)), bt.cAB[k, u], atol=1e-12)


def test_dsss_reproduces_symmetrized_cubic(model):
    series = assemble_potential(model)
    bt = bundle_tensors(model)
    cb = bt.cB
    for (i, j, r) in [(0, 0, 0), (1, 2, 3), (0, 1, 1), (4, 5, 6), (0, 4, 4)]:
        d3 = d_sss(series, i, j, r)
        got = d3.coefficient((), ())
        want = (cb[i, j, r] + cb[j, r, i] + cb[r, i, j]) / 3.0
        assert np.isclose(got, want, atol=1e-12)
        # constant in both alphabets: no other monomials survive
        assert all(key == ((), ()) for key in d3.terms)


def test_clean_model_passes(model):
    rep = verify_bundle(model, sample_points=3)
    assert rep.passed
    assert rep.routes_agree
    assert max(rep.conditions.residuals.values()) < 1e-8
    assert rep.frame_drift < 1e-8
    assert len(rep.frame_scales) == 2
    assert max(rep.pointwise.residuals.values()) < 1e-9


def test_corruptions_fire_predicted_conditions(model):
    for corruption in CORRUPTIONS + ("phi_swap",):
        rep = verify_bundle(model, sample_points=2, corruption=corruption)
        assert rep.routes_agree, corruption
        assert not rep.series_passed, corruption
        assert not rep.pointwise_passed, corruption
        predicted = PREDICTED_CONDITION[corruption]
        assert rep.conditions.residuals[predicted] > 1e-3, corruption
        fired = sorted(
            name for name, val in rep.conditions.residuals.items() if val > 1e-8
        )
        assert fired[0] == predicted, (corruption, fired)


# Condition residuals of verify_bundle(t_degree=5, sample_points=2) on the
# fixture model, as the series route gave them when first recorded.  The
# clean condition_6 = 3*sqrt(6) is the known truncation-5 defect (the
# boundary blocks stay frozen at the base point); the change that makes
# the series route true above truncation 4 updates that value.
T5_RESIDUALS = {
    None: {"condition_6": 7.3484692283495345},
    "t_symmetry": {"condition_1": 0.05000000000000002, "condition_6": 7.3484692283495345},
    "b_associativity": {"condition_4": 0.02721655269759087,
                        "condition_6": 7.3484692283495345,
                        "condition_7": 0.016666666666666666},
    "centrality": {"condition_5": 2.449489742783178,
                   "condition_6": 7.3484692283495345,
                   "condition_7": 2.999999999999999},
}


def test_truncation_five_residuals_pinned(model):
    for corruption, pinned in T5_RESIDUALS.items():
        rep = verify_bundle(model, t_degree=5, sample_points=2, corruption=corruption)
        residuals = rep.conditions.residuals
        assert sorted(residuals) == ["condition_%d" % k for k in (1, 3, 4, 5, 6, 7)]
        for name, value in residuals.items():
            want = pinned.get(name, 0.0)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want)), (corruption, name)


def test_cardy_corruption_is_isolated(model):
    rep = verify_bundle(model, sample_points=2, corruption="cardy")
    for name in ("condition_4", "condition_5", "condition_6"):
        assert rep.conditions.residuals[name] < 1e-12
    assert np.isclose(rep.conditions.residuals["condition_7"], 0.41, atol=1e-3)


def test_t_symmetry_corruption_only_breaks_condition_one(model):
    rep = verify_bundle(model, sample_points=2, corruption="t_symmetry")
    assert rep.conditions.residuals["condition_1"] > 1e-3
    for name in ("condition_3", "condition_4", "condition_5", "condition_6", "condition_7"):
        assert rep.conditions.residuals[name] < 1e-12


def test_phi_swap_keeps_homomorphism_exact(model):
    # swapping two block targets leaves phi a genuine central algebra
    # homomorphism; only the transfer identity notices
    rep = verify_bundle(model, sample_points=2, corruption="phi_swap")
    assert rep.pointwise.residuals["homomorphism"] == 0.0
    assert rep.pointwise.residuals["centrality"] == 0.0
    assert rep.pointwise.residuals["cardy"] > 1e-3
    assert rep.conditions.residuals["condition_6"] < 1e-12
    assert rep.conditions.residuals["condition_7"] > 1e-3


def test_single_block_model_passes():
    m1 = build_quaternion_model(n=1, a=(1.0,))
    rep = verify_bundle(m1, sample_points=3)
    assert rep.passed
    assert max(rep.conditions.residuals.values()) < 1e-9


def _seeded_model(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = tuple(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        try:
            return build_quaternion_model(n=n, a=a)
        except DegenerateModelError:
            continue


def _corrupted_cfs(model):
    yield None, model.cf
    for corruption in CORRUPTIONS + ("phi_swap",):
        try:
            yield corruption, corrupt_model(model, corruption)
        except ValueError:  # this corruption needs n >= 2
            continue


@pytest.mark.parametrize("n", range(1, 9))
def test_boundary_blocks_of_series_match_dense_formulas(n):
    # the dense formulas, written out over the whole 4n-dimensional
    # boundary algebra, against the per-block reader of the series
    model = _seeded_model(n, 40 + n)
    chart = flat_chart(p=model.p)
    values = np.array([[poly_eval(tan, r) for r in model.closed.roots]
                       for tan in chart.tangents])
    for corruption, cf in _corrupted_cfs(model):
        mulb, lb = cf.b.algebra.mul, cf.b.functional
        gram = np.einsum("uvq,q->uv", mulb, lb)
        cubic = np.einsum("uvq,qwr,r->uvw", mulb, mulb, lb)
        transfer = np.array([np.einsum("p,puq,q->u", cf.phi @ values[k], mulb, lb)
                             for k in range(n)])
        series = assemble_potential(model, cf=cf)
        boundary = {key: c for key, c in series.terms.items() if key[1]}
        want = {}
        for idx in zip(*np.nonzero(gram)):
            want[((), tuple(int(x) for x in idx))] = gram[idx]
        for idx in zip(*np.nonzero(cubic)):
            want[((), tuple(int(x) for x in idx))] = cubic[idx] / 3.0
        for k, u in zip(*np.nonzero(transfer)):
            want[((int(k),), (int(u),))] = transfer[k, u]
        assert set(boundary) == set(want), corruption
        for key, v in want.items():
            assert abs(boundary[key] - v) <= 1e-12 * max(1.0, abs(v)), (corruption, key)
            assert all(type(x) is int for x in key[0] + key[1])


def test_undeclared_cross_block_write_is_refused(model):
    # the per-block reader skips entries between blocks, so an algebra
    # carrying one must be refused at construction, never read
    alg = model.cf.b.algebra
    mul = alg.mul.copy()
    mul[0, 4, 4] = 0.05
    with pytest.raises(ValueError, match="do not split"):
        FiniteAlgebra(mul, alg.unit, alg.labels, alg.blocks)
    merged = FiniteAlgebra(mul, alg.unit, alg.labels, [(0, 8)])
    assert merged.blocks == [(0, 8)]


def test_frame_scales_are_taken_at_the_largest_departure():
    models = (build_quaternion_model(n=2, a=(-3.0, 0.0)), _seeded_model(2, 0),
              _seeded_model(3, 1))
    for model in models:
        for paper_scale in (False, True):
            rep = verify_bundle(model, sample_points=4, paper_scale=paper_scale)
            departure = float(np.max(np.abs(np.array(rep.frame_scales) - 1.0)))
            assert rep.frame_scale_spread == departure > 0.0


def test_quaternion_action_commutes_with_transfer(model):
    frame = flat_s_frame(model, (-3.03, 0.0))
    alg = quaternion_pair(1.0).algebra
    for letter in (1, 2, 3):
        x = np.zeros(4)
        x[letter] = 1.0
        act = alg.left_action_matrix(x)
        for lam in frame.scales:
            transfer = lam * np.eye(4)
            assert np.array_equal(act @ transfer, transfer @ act)


def test_route_agreement_on_random_models():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 20:
        a = tuple(rng.uniform(-4.0, 4.0, size=2) + 1j * rng.uniform(-1.0, 1.0, size=2))
        try:
            m = build_quaternion_model(n=2, a=a)
            rep = verify_bundle(m, sample_points=1, sample_distance=1e-3)
        except DegenerateModelError:
            continue
        assert rep.routes_agree, a
        assert rep.passed, a
        checked += 1


def test_t_degree_validation(model):
    with pytest.raises(ValueError):
        assemble_potential(model, t_degree=2)
    series = assemble_potential(model, t_degree=3)
    assert series.truncation == 3


def test_report_round_trips_to_json(model):
    rep = verify_bundle(model, sample_points=1)
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["routes_agree"] is True
    assert "condition_7" in {row["name"] for row in data["conditions"]["residuals"]}
    assert len(data["frame_scales"]) == 2


def test_nan_at_one_sample_point_fails_pointwise_route(model, monkeypatch):
    # the NaN comes after finite values of the same facts, where the
    # builtin max and min would drop it
    calls = []
    exact = bd.verify_cardy_frobenius

    def nan_at_second_sample(cf, tol=None):
        rep = exact(cf, tol=tol)
        calls.append(cf)
        if len(calls) == 3:
            rep.residuals["cardy_trace"] = float("nan")
            rep.margins = {name: float("nan") for name in rep.margins}
        return rep

    monkeypatch.setattr(bd, "verify_cardy_frobenius", nan_at_second_sample)
    rep = verify_bundle(model, sample_points=3)
    assert len(calls) == 4  # the base point and three sample points
    assert np.isnan(rep.pointwise.residuals["cardy"])
    assert rep.pointwise.margins and all(np.isnan(v) for v in rep.pointwise.margins.values())
    assert not rep.pointwise.passed and not rep.pointwise_passed
    assert rep.series_passed and not rep.routes_agree
    assert not rep.passed


def test_nan_frame_at_one_sample_point_fails_the_frame(model, monkeypatch, capsys):
    # the second of three sample frames has a NaN drift and NaN scales,
    # after a finite first frame that the builtin max would keep
    calls = []
    exact = bd.flat_s_frame

    def nan_at_second_sample(*args, **kwargs):
        frame = exact(*args, **kwargs)
        calls.append(frame)
        if len(calls) % 3 == 2:
            frame.drift = float("nan")
            frame.scales = frame.scales * np.nan
        return frame

    monkeypatch.setattr(bd, "flat_s_frame", nan_at_second_sample)
    rep = verify_bundle(model, sample_points=3)
    assert len(calls) == 3
    assert np.isnan(rep.frame_drift) and np.isnan(rep.frame_scale_spread)
    assert np.isnan(rep.frame.residuals["frame_drift"])
    assert not rep.frame.passed and not rep.passed
    assert rep.series_passed and rep.pointwise_passed and rep.routes_agree
    assert main(["bundle", "--n", "2", "--a", "-3,0 0,0", "--samples", "3"]) == 1
    assert len(calls) == 6
    capsys.readouterr()
