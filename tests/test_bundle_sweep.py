"""The stacked sample sweep of verify_bundle against a per-point loop.

``_per_point`` writes out the pointwise route the way it ran before the
sweep was stacked: one sample point at a time, each inverted, framed
(``test_bundle.frame_at``, one row of the frame continuation), built,
corrupted and checked through the one-point functions, keeping
the worst value of every fact and margin and the point that gave it.
``verify_bundle`` must reproduce its facts, margins, drift, spread,
scales and pass flags, and raise what it raises.  Its worst point of a
fact must carry the worst value in the loop too; where several points
agree to rounding, either may be reported.
"""

import tracemalloc

import numpy as np
import pytest

from lgcardy import bundle as bd
from lgcardy import cardy
from lgcardy.bundle import CORRUPTIONS, corrupt_model, verify_bundle
from lgcardy.cardy import verify_cardy_frobenius
from lgcardy.frobenius import _worst, verify_frobenius
from lgcardy.landau_ginzburg import _quaternion_model, build_quaternion_model
from lgcardy.moduli import _chart_on, coefficients_from_flat
from lgcardy.polycore import EQ_TOL, DegenerateModelError

from test_bundle import frame_at


def _seeded_model(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        a = tuple(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        try:
            return build_quaternion_model(n=n, a=a)
        except DegenerateModelError:
            continue


def _facts(rep, a_associativity, b_associativity):
    r = rep.residuals
    facts = {
        "a_associativity": np.max([a_associativity, r["commutativity"]]),
        "b_associativity": b_associativity,
        "centrality": r["centrality"],
        "homomorphism": np.max([r["homomorphism"], r["unit_preservation"]]),
        "cardy": np.max([r["cardy_trace"], r["cardy_coordinate"]]),
    }
    return facts, dict(rep.margins)


def _per_point(model, corruption=None, eps=0.05, sample_points=10, sample_distance=1e-2,
               tol=EQ_TOL, paper_scale=False, seed=0):
    n = model.n
    cf = model.cf if corruption is None else corrupt_model(model, corruption, eps=eps)
    chart = _chart_on(model.closed)
    bulk = verify_frobenius(cf.a, tol=tol)
    boundary = verify_frobenius(cf.b, tol=tol)
    facts, margins = _facts(verify_cardy_frobenius(cf, tol=tol),
                            bulk.residuals["associativity"], boundary.residuals["associativity"])
    # every point's value of every fact and margin, the base point first
    points = {name: [v] for name, v in list(facts.items()) + list(margins.items())}
    rng = np.random.default_rng(seed)
    drift, spread, scales = 0.0, 0.0, tuple(np.ones(n, dtype=complex))
    for k in range(1, sample_points + 1):
        step = rng.standard_normal(n)
        step /= np.linalg.norm(step)
        t = np.asarray(chart.t, dtype=complex) + sample_distance * step
        a_q = coefficients_from_flat(n, t, a0=model.p.a)
        closed, _, _, scales_q, drift_q = frame_at(model, a_q, paper_scale=paper_scale)
        drift = np.max([drift, drift_q])
        spread_q = float(np.max(np.abs(scales_q - 1.0)))
        if spread == spread and not spread_q <= spread:
            spread, scales = spread_q, tuple(scales_q)
        cf_q = _quaternion_model(closed, model.branch).cf
        if corruption is not None:
            cf_q = bd._corrupt_cf(cf_q, n, corruption, eps)
        facts_q, margins_q = _facts(verify_cardy_frobenius(cf_q, tol=tol),
                                    cf_q.a.algebra.associator_residual(),
                                    cf_q.b.algebra.associator_residual())
        for name, v in list(facts_q.items()) + list(margins_q.items()):
            points[name].append(v)
    facts = {name: np.max(points[name]) for name in facts}
    margins = {name: np.min(points[name]) for name in margins}
    for name in ("unit", "form_symmetry"):
        facts[name] = np.max([bulk.residuals[name], boundary.residuals[name]])
        points[name] = [facts[name]]
    return {"facts": facts, "margins": margins, "points": points, "drift": float(drift),
            "spread": spread, "scales": np.array(scales)}


def _close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    both_nan = np.isnan(got) & np.isnan(want)
    ok = both_nan | (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    return bool(np.all(ok))


def _assert_matches(rep, ref, label):
    tol = rep.pointwise.tol
    assert set(rep.pointwise.residuals) == set(ref["facts"]), label
    assert set(rep.pointwise.margins) == set(ref["margins"]), label
    for name, want in ref["facts"].items():
        got = rep.pointwise.residuals[name]
        assert _close(got, want), (label, name, got, want)
        assert (got <= tol) == (want <= tol), (label, name)
    for name, want in ref["margins"].items():
        got = rep.pointwise.margins[name]
        assert _close(got, want), (label, name, got, want)
        assert (got > tol) == (want > tol), (label, name)
    assert set(rep.worst_sample) == set(ref["points"]), label
    for name, k in rep.worst_sample.items():
        values = np.array(ref["points"][name])
        worst = {**ref["facts"], **ref["margins"]}[name]
        if np.isnan(worst):
            assert k == int(np.argmax(np.isnan(values))), (label, name)
        else:
            assert _close(values[k], worst), (label, name, k, values)
    assert _close(rep.frame_drift, ref["drift"]), label
    assert _close(rep.frame_scale_spread, ref["spread"]), label
    assert _close(np.array(rep.frame_scales), ref["scales"]), label
    if not rep.paper_scale:
        assert (rep.frame.residuals["frame_drift"] <= bd.FRAME_DRIFT_TOL) == (
            ref["drift"] <= bd.FRAME_DRIFT_TOL), label


def _corruptions(n):
    return [None] + [c for c in CORRUPTIONS + ("phi_swap",)
                     if n >= 2 or c not in ("t_symmetry", "homomorphism", "phi_swap")]


@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_sweep_matches_the_per_point_loop(n):
    model = _seeded_model(n, 70 + n)
    for corruption in _corruptions(n):
        for t_degree in (4, 5) if n <= 3 else (4,):
            for paper_scale in (False, True):
                for points in (0, 1, 10):
                    label = (n, corruption, t_degree, paper_scale, points)
                    rep = verify_bundle(model, t_degree=t_degree, sample_points=points,
                                        corruption=corruption, paper_scale=paper_scale)
                    ref = _per_point(model, corruption=corruption, sample_points=points,
                                     paper_scale=paper_scale)
                    _assert_matches(rep, ref, label)
                    assert rep.pointwise.passed == (corruption is None), label


def _outcome(fn):
    try:
        return fn(), None
    except (ValueError, np.linalg.LinAlgError) as exc:
        return None, (type(exc), str(exc))


def test_a_raising_sample_point_raises_what_the_loop_raises():
    # large steps jump between branches at some sample points and not at
    # others; each run must fail or pass exactly as the loop does
    raised = passed = 0
    for n in (2, 3, 4):
        model = _seeded_model(n, 80 + n)
        for distance in (0.3, 1.0, 3.0):
            for seed in range(4):
                kwargs = dict(sample_points=10, sample_distance=distance, seed=seed)
                rep, error = _outcome(lambda: verify_bundle(model, **kwargs))
                ref, ref_error = _outcome(lambda: _per_point(model, **kwargs))
                assert error == ref_error, (n, distance, seed)
                if error is None:
                    _assert_matches(rep, ref, (n, distance, seed))
                    passed += 1
                else:
                    raised += 1
    assert raised and passed


def test_a_degenerate_sample_form_raises_what_the_loop_raises():
    # a tolerance between the base point's bulk margin and the smallest
    # sample margin refuses a sample point, not the base point
    model = _seeded_model(3, 91)
    margins = _per_point(model, sample_points=10, sample_distance=0.2)["margins"]
    base = verify_cardy_frobenius(model.cf).margins["nondegeneracy_A"]
    assert margins["nondegeneracy_A"] < base
    tol = 0.5 * (base + margins["nondegeneracy_A"])
    kwargs = dict(sample_points=10, sample_distance=0.2, tol=tol)
    assert _outcome(lambda: verify_bundle(model, **kwargs))[1] == (ValueError, "degenerate A-form")
    assert _outcome(lambda: _per_point(model, **kwargs))[1] == (ValueError, "degenerate A-form")


def test_ten_sample_points_keep_memory_small():
    model = _seeded_model(8, 78)
    chart = _chart_on(model.closed)
    verify_bundle(model, sample_points=10)
    tracemalloc.start()
    try:
        verify_bundle(model, sample_points=10)
        whole = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        bd._sample_sweep(model, chart, None, 0.05, 10, 1e-2, EQ_TOL, False, 0)
        sweep = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the block-stacked series route stays under 1 MB at n = 8; the stack
    # of ten sample points holds (10, 4n, 4n) Gram stacks, about 1.1 MB
    assert whole < 5e6
    assert sweep < 2.5e6


def test_the_first_failing_sample_point_decides_the_error(monkeypatch):
    # the loop meets sample point 4's branch jump before it reaches any
    # later point, and a point before 4 before the jump
    model = _seeded_model(3, 83)
    kwargs = dict(sample_points=10, sample_distance=1.0, seed=1)
    jump = (DegenerateModelError, "frame continuation failed")
    assert _outcome(lambda: _per_point(model, **dict(kwargs, sample_points=3)))[1] is None
    assert _outcome(lambda: _per_point(model, **dict(kwargs, sample_points=4)))[1] == jump
    exact = bd._invert_flat
    stuck = "flat coordinate inversion did not converge"

    def stuck_at(k):
        def invert(n, targets, a0, failures):
            a = exact(n, targets, a0, failures)
            failures.flag(np.arange(len(targets)) == k - 1,
                          lambda s: DegenerateModelError(stuck))
            return a
        return invert

    for k, want in ((2, (DegenerateModelError, stuck)), (6, jump)):
        monkeypatch.setattr(bd, "_invert_flat", stuck_at(k))
        assert _outcome(lambda: verify_bundle(model, **kwargs))[1] == want, k


@pytest.mark.parametrize("n", (2, 3))
def test_one_cardy_stack_holds_the_base_point_and_the_samples(monkeypatch, n):
    # every Cardy check of verify_bundle is one stacked call: the base
    # point is its row 0, and no one-point check (verify_cardy_frobenius
    # runs through the same function) is made beside it
    model = _seeded_model(n, 60 + n)
    calls = []
    exact = cardy._cardy_checks

    def recording(cf, tol):
        calls.append(cf)
        return exact(cf, tol)

    monkeypatch.setattr(cardy, "_cardy_checks", recording)
    monkeypatch.setattr(bd, "_cardy_checks", recording)
    for corruption in (None,) + CORRUPTIONS + ("phi_swap",):
        calls.clear()
        rep = verify_bundle(model, sample_points=4, corruption=corruption)
        [cf] = calls
        assert cf.a.functional.shape == (5, n), corruption
        base_cf = model.cf if corruption is None else corrupt_model(model, corruption)
        assert np.array_equal(cf.a.functional[0], base_cf.a.functional)
        assert np.array_equal(cf.b.functional[0], base_cf.b.functional)
        # row 0 is the one-point check, bit for bit; the transfer routes
        # carry the point axis, the other defects are shared
        defects, margins, _ = exact(cf, EQ_TOL)
        base = verify_cardy_frobenius(base_cf)
        for name, value in base.residuals.items():
            axis = (-2, -1) if name in ("cardy_trace", "cardy_coordinate") else None
            rows = _worst(defects[name], axis=axis)
            assert np.broadcast_to(rows, 5)[0] == value, (corruption, name)
        for name, value in base.margins.items():
            assert margins[name][0] == value, (corruption, name)
        assert rep.pointwise.margins == {name: min(v) for name, v in margins.items()}


def test_a_degenerate_base_point_raises_before_any_sample_error(monkeypatch):
    # a tolerance at the base point's bulk margin refuses the base point
    # (row 0), and that error wins over a failing first sample point
    model = _seeded_model(3, 91)
    base = verify_cardy_frobenius(model.cf).margins["nondegeneracy_A"]
    tol = base
    exact = bd._invert_flat
    stuck = (DegenerateModelError, "flat coordinate inversion did not converge")

    def stuck_at_first(n, targets, a0, failures):
        a = exact(n, targets, a0, failures)
        failures.flag(np.arange(len(targets)) == 0, lambda s: DegenerateModelError(stuck[1]))
        return a

    monkeypatch.setattr(bd, "_invert_flat", stuck_at_first)
    assert _outcome(lambda: verify_bundle(model, sample_points=3))[1] == stuck
    assert _outcome(lambda: verify_bundle(model, sample_points=3, tol=tol))[1] == (
        ValueError, "degenerate A-form")
