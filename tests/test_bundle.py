"""Tests for the boundary frame bundle and the two-route verifier."""

import json

import numpy as np
import pytest

from lgcardy import bundle as bd
from lgcardy.bundle import (
    CORRUPTIONS,
    PREDICTED_CONDITION,
    assemble_potential,
    corrupt_model,
    verify_bundle,
)
from lgcardy.cli import main
from lgcardy.frobenius import FiniteAlgebra, FrobeniusPair, quaternion_pair
from lgcardy.cardy import CardyFrobeniusAlgebra
from lgcardy.landau_ginzburg import _quaternion_cf, build_closed, build_quaternion_model
from lgcardy.moduli import flat_chart
from lgcardy.polycore import DegenerateModelError, _Failures, poly_eval
from lgcardy.tensor_series import ext_wdvv_check

from letter_calculus import d_sss
from test_frobenius import dense
from test_tensor_series import quadratic_blocks


@pytest.fixture(scope="module")
def model():
    return build_quaternion_model(n=2, a=(-3.0, 0.0))


def frame_at(model, a, paper_scale=False):
    """verify_bundle's frame at coefficients ``a``, one row of its sweep: the closed
    algebra, matched roots, rho, scales and drift; an ambiguous match raises."""
    closed, failures = build_closed(n=model.n, a=a), _Failures(1)
    frames = bd._continue_frames(model, closed.roots[None], closed.mu[None], paper_scale,
                                 failures)
    failures.raise_first()
    roots, _, rho, scales, drift = (x[0] for x in frames)
    return closed, roots, rho, scales, float(drift)


def test_frame_identity_at_base(model):
    _, roots, rho, scales, drift = frame_at(model, model.p.a)
    assert np.allclose(scales, 1.0, atol=1e-12)
    assert drift < 1e-12
    assert np.allclose(roots, model.closed.roots)
    assert np.allclose(rho, model.rho)


def test_frame_gram_constant_nearby(model):
    _, _, _, scales, drift = frame_at(model, (-3.03, 0.0))
    assert drift < 1e-9
    # the scale factors themselves did move
    assert np.max(np.abs(scales - 1.0)) > 1e-4


def test_paper_scale_drift_is_the_documented_mismatch(model):
    _, _, rho, _, drift = frame_at(model, (-3.03, 0.0), paper_scale=True)
    assert drift > 1e-4
    expected = np.max(np.abs(2.0 * model.rho**2 / rho - 2.0 * model.rho))
    assert np.isclose(drift, expected, rtol=1e-10)


def test_frame_continuation_ambiguous_raises(model):
    # critical points of the target sit at +-i, equidistant from both
    # base critical points +-1
    with pytest.raises(DegenerateModelError, match="frame continuation failed"):
        frame_at(model, (3.0, 0.0))


def _cubic_closed_form(model):
    """The boundary triple pairing l((f_u f_v) f_w), from the dense product
    and the Gram matrix."""
    return np.einsum("uvq,qw->uvw", dense(model.cf.b.algebra), model.cf.b.gram())


def test_series_blocks_frozen_values(model):
    series = assemble_potential(model)
    rho = model.rho
    cubic = _cubic_closed_form(model)
    for i in range(2):
        u0 = 4 * i
        assert np.isclose(cubic[u0, u0, u0], 2.0 * rho[i])
        # (I J) K = K K = -1
        assert np.isclose(cubic[u0 + 1, u0 + 2, u0 + 3], -2.0 * rho[i])
    # cross-block entries vanish
    assert np.allclose(cubic[0:4, 4:8, :], 0.0)
    for u, v, w in np.ndindex(cubic.shape):
        assert np.isclose(series.coefficient((), (u, v, w)), cubic[u, v, w] / 3.0, atol=1e-12)
    assert np.isclose(abs(series.coefficient((0,), (4,))), 2.0 / np.sqrt(6.0))


def test_series_quadratic_and_mixed_blocks_closed_forms(model):
    series = assemble_potential(model)
    m = 8
    gram = model.cf.b.gram()
    _, qs = quadratic_blocks(series)
    assert np.allclose(qs, gram, atol=1e-12)
    for u in range(m):
        sign = 2.0 if u % 4 == 0 else -2.0
        assert np.isclose(series.coefficient((), (u, u)), sign * model.rho[u // 4])
    # the mixed row k is 2 rho_i T_k(x_i) on the unit of block i, 0 on I, J, K
    values = np.array([poly_eval(t, model.closed.roots) for t in flat_chart(p=model.p).tangents])
    mixed = np.zeros((2, m), dtype=complex)
    mixed[:, ::4] = 2.0 * model.rho * values
    for k in range(2):
        for u in range(m):
            assert np.isclose(series.coefficient((k,), (u,)), mixed[k, u], atol=1e-12)


def test_dsss_reproduces_symmetrized_cubic(model):
    series = assemble_potential(model)
    cb = _cubic_closed_form(model)
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


def test_series_route_misses_a_corrupted_bulk_product(model):
    # the series reads its bulk block off the chart, never off cf.a, so a
    # t_symmetry copy leaves the assembled series clean: verify_bundle
    # fires condition_1 only through its bump.  Carrying the corruption
    # through cf.a is left to ROADMAP item 5 (a second construction).
    series = assemble_potential(model, cf=corrupt_model(model, "t_symmetry"))
    assert series.terms == assemble_potential(model).terms
    assert ext_wdvv_check(series).passed


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
        mulb, lb = dense(cf.b.algebra), cf.b.functional
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
    mul = dense(alg)
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
    _, _, _, scales, _ = frame_at(model, (-3.03, 0.0))
    alg = quaternion_pair(1.0).algebra
    for letter in (1, 2, 3):
        x = np.zeros(4)
        x[letter] = 1.0
        act = alg.left_action_matrix(x)
        for lam in scales:
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
    assert list(data) == ["residuals", "margins", "data", "passed"]
    assert data["data"]["routes_agree"] is True and data["passed"] is True
    assert "condition_7" in {row["name"] for row in data["residuals"]}
    assert len(data["data"]["frame_scales"]) == 2


def test_nan_at_one_sample_point_fails_pointwise_route(model, monkeypatch):
    # the NaN sits in the second of three samples of the batch (row 2,
    # after the base point's row 0), after finite values of the same
    # facts, where the builtin max and min would drop it
    calls = []
    exact = bd._quaternion_cf

    def nan_at_second_sample(mu, branch, failures):
        branch, rho, cf = exact(mu, branch, failures)
        calls.append(cf)
        cf.a.functional[2] = np.nan
        cf.b.functional[2] = np.nan
        return branch, rho, cf

    monkeypatch.setattr(bd, "_quaternion_cf", nan_at_second_sample)
    rep = verify_bundle(model, sample_points=3)
    # one stack holding the base point and the three sample points
    assert len(calls) == 1 and calls[0].a.functional.shape == (4, 2)
    assert np.isnan(rep.pointwise.residuals["cardy"])
    assert rep.pointwise.margins and all(np.isnan(v) for v in rep.pointwise.margins.values())
    assert not rep.pointwise.passed and not rep.pointwise_passed
    assert rep.series_passed and not rep.routes_agree
    assert not rep.passed
    # the base point is 0, so the second sample point is 2
    assert rep.worst_sample["cardy"] == 2
    assert all(rep.worst_sample[name] == 2 for name in rep.pointwise.margins)


def test_nan_frame_at_one_sample_point_fails_the_frame(model, monkeypatch, capsys):
    # the second of three sample frames of the batch has a NaN drift and
    # NaN scales, after a finite first frame that the builtin max would keep
    calls = []
    exact = bd._continue_frames

    def nan_at_second_sample(*args, **kwargs):
        roots, mu, rho, scales, drift = exact(*args, **kwargs)
        calls.append(len(drift))
        drift[1] = np.nan
        scales[1] = np.nan
        return roots, mu, rho, scales, drift

    monkeypatch.setattr(bd, "_continue_frames", nan_at_second_sample)
    rep = verify_bundle(model, sample_points=3)
    assert calls == [3]  # one stack of three frames
    assert np.isnan(rep.frame_drift) and np.isnan(rep.frame_scale_spread)
    assert np.isnan(rep.frame.residuals["frame_drift"])
    assert not rep.frame.passed and not rep.passed
    assert rep.series_passed and rep.pointwise_passed and rep.routes_agree
    assert main(["bundle", "--n", "2", "--a", "-3,0 0,0", "--samples", "3"]) == 1
    assert calls == [3, 3]
    capsys.readouterr()


def _dense_corrupt_cf(cf, n, corruption, eps):
    """The reference corruption, written on dense tensors: both structure
    tensors formed in full, one entry of them, of phi or of a functional
    changed, and both algebras rebuilt by the dense constructor on their
    blocks, the bulk as one block under t_symmetry."""
    mula = dense(cf.a.algebra)
    la = cf.a.functional.copy()
    mulb = dense(cf.b.algebra)
    lb = cf.b.functional.copy()
    phi = cf.phi.copy()
    if corruption == "t_symmetry":
        mula[0, 1, 0] += eps
    elif corruption == "b_associativity":
        mulb[1, 2, 2] += eps
    elif corruption == "centrality":
        phi[:, 0] = 0.0
        phi[0, 0] = 0.5
        phi[1, 0] = 0.5j
    elif corruption == "homomorphism":
        phi[4, 0] += eps
    elif corruption == "phi_swap":
        phi[:, [0, 1]] = phi[:, [1, 0]]
    elif corruption == "cardy":
        lb[..., :4] *= 1.0 + eps
    alga, algb = cf.a.algebra, cf.b.algebra
    a_pair = FrobeniusPair(
        FiniteAlgebra(mula, alga.unit.copy(), alga.labels,
                      None if corruption == "t_symmetry" else alga.blocks), la, name=cf.a.name)
    b_pair = FrobeniusPair(FiniteAlgebra(mulb, algb.unit.copy(), algb.labels, algb.blocks), lb,
                           name=cf.b.name)
    return CardyFrobeniusAlgebra(a_pair, b_pair, phi, name=cf.name + "+" + corruption)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, np.ascontiguousarray(x).tobytes()


def _assert_same_cf(got, want, label):
    assert got.name == want.name, label
    assert _bits(got.phi) == _bits(want.phi), label
    for g, w in ((got.a, want.a), (got.b, want.b)):
        assert (g.name, g.algebra.labels, g.algebra.blocks) == (
            w.name, w.algebra.labels, w.algebra.blocks), label
        assert _bits(g.functional) == _bits(w.functional), label
        assert _bits(g.algebra.unit) == _bits(w.algebra.unit), label
        assert len(g.algebra.stacks) == len(w.algebra.stacks), label
        for (gi, gc), (wi, wc) in zip(g.algebra.stacks, w.algebra.stacks):
            assert _bits(gi) == _bits(wi) and _bits(gc) == _bits(wc), label


def _stacked_cf(models):
    """The sweep's stack of Cardy pairs on the weights of ``models``."""
    mu = np.array([m.closed.mu for m in models])
    return _quaternion_cf(mu, models[0].branch, _Failures(len(models)))[2]


@pytest.mark.parametrize("n", range(1, 9))
def test_corruptions_edit_stacks_as_the_dense_reference(n):
    models = [_seeded_model(n, 70 + n + k) for k in range(3)]
    for label, cf in (("model", models[0].cf), ("stack", _stacked_cf(models))):
        for corruption in CORRUPTIONS + ("phi_swap",):
            try:
                got = bd._corrupt_cf(cf, n, corruption, 0.05)
            except ValueError:  # this corruption needs n >= 2
                assert n == 1 and corruption in ("t_symmetry", "homomorphism", "phi_swap")
                continue
            _assert_same_cf(got, _dense_corrupt_cf(cf, n, corruption, 0.05),
                            (label, corruption))


def test_corruptions_build_no_dense_boundary(monkeypatch):
    # the name bundle imports is the one its corruptions would call
    calls, dense_of = [], bd._dense

    def recording(stacks, dim):
        calls.append(dim)
        return dense_of(stacks, dim)

    monkeypatch.setattr(bd, "_dense", recording)
    for n in (2, 3):
        model = _seeded_model(n, 80 + n)
        for corruption in CORRUPTIONS + ("phi_swap",):
            bulk = [n] if corruption == "t_symmetry" else []
            calls.clear()
            corrupt_model(model, corruption)
            assert calls == bulk, corruption
            calls.clear()
            verify_bundle(model, corruption=corruption, sample_points=3)
            # the base point's corruption, then the sweep's
            assert calls == bulk * 2, corruption


def test_corruptions_leave_the_model_stacks_read_only():
    for n in (1, 2, 5):
        model = _seeded_model(n, 90 + n)
        algebras = (model.cf.a.algebra, model.cf.b.algebra)
        before = [_bits(x) for alg in algebras for stack in alg.stacks for x in stack]
        for corruption in CORRUPTIONS + ("phi_swap",):
            try:
                corrupt_model(model, corruption)
            except ValueError:  # this corruption needs n >= 2
                continue
            arrays = [x for alg in algebras for stack in alg.stacks for x in stack]
            assert [_bits(x) for x in arrays] == before, corruption
            assert not any(x.flags.writeable for x in arrays), corruption
        (_, cubes), = model.cf.b.algebra.stacks
        with pytest.raises(ValueError, match="read-only"):
            cubes[0, 1, 2, 2] += 0.05
    with pytest.raises(ValueError, match="unknown corruption 'nope'"):
        corrupt_model(model, "nope")


@pytest.mark.parametrize("n", range(1, 9))
def test_cubic_blocks_match_the_three_operand_einsum(n):
    model = _seeded_model(n, 40 + n)
    for corruption, cf in _corrupted_cfs(model):
        got = bd._cubic_blocks(cf.b, cf.b.gram())
        want = [(index, np.einsum("guvq,gqwr,gr->guvw", c, c, cf.b.functional[index]))
                for index, c in cf.b.algebra.stacks]
        assert len(got) == len(want)
        for (gi, gc), (wi, wc) in zip(got, want):
            assert _bits(gi) == _bits(wi) and _bits(gc) == _bits(wc), corruption
