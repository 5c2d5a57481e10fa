"""Acceptance gate: one test per numbered criterion.

Each test prints a single PASS/FAIL line with the measured worst-case
values (run pytest -s to see the lines for passing tests too), then
asserts.  The whole module is meant to stay well under a minute.
"""

import numpy as np

from lgcardy.bundle import CORRUPTIONS, PREDICTED_CONDITION, verify_bundle
from lgcardy.cardy import matrix_cf, quaternionic_cf, verify_cardy_frobenius
from lgcardy.frobenius import m2_quaternion_isomorphism
from lgcardy.landau_ginzburg import build_closed, build_quaternion_model
from lgcardy.moduli import (
    PotentialPoly,
    euler_check,
    flat_chart,
    reconstruct_potential,
    sample_charts,
    structure_tensor,
    wdvv_check,
)
from lgcardy.polycore import DegenerateModelError
from lgcardy.tensor_series import TensorSeries

from letter_calculus import d_sss
from test_bundle import frame_at

_SAMPLE = []


def _sample_models():
    """50 seeded random quaternion models, n cycling through 2..6."""
    if not _SAMPLE:
        rng = np.random.default_rng(7)
        while len(_SAMPLE) < 50:
            n = 2 + len(_SAMPLE) % 5
            a = rng.uniform(-2, 2, n) + 1j * rng.uniform(-1, 1, n)
            try:
                _SAMPLE.append(build_quaternion_model(n=n, a=tuple(a)))
            except (DegenerateModelError, ValueError):
                continue
    return _SAMPLE


def _line(num, label, ok, detail):
    print("criterion %d (%s): %s  [%s]" % (num, label, "PASS" if ok else "FAIL", detail))


def test_criterion_1_idempotent_suite():
    worst = 0.0
    for model in _sample_models():
        closed = model.closed
        alg = closed.pair.algebra
        e = closed.idempotents
        for i in range(len(e)):
            for j in range(len(e)):
                prod = alg.multiply(e[i], e[j])
                target = e[i] if i == j else np.zeros_like(e[i])
                worst = max(worst, float(np.max(np.abs(prod - target))))
        worst = max(worst, float(np.max(np.abs(e.sum(axis=0) - alg.unit))))
    ok = worst < 1e-9
    _line(1, "idempotent suite, 50 random models", ok, "worst %.3e < 1e-9" % worst)
    assert ok


def test_criterion_2_critical_weights_two_routes():
    worst = 0.0
    for model in _sample_models():
        closed = model.closed
        worst = max(worst, float(np.max(np.abs(closed.mu - closed.mu_product))))
    closed = build_closed(n=2, a=(-3.0, 0.0))
    chart = flat_chart(n=2, a=(-3.0, 0.0))
    t2 = chart.t[1]
    formula = 1.0 / (6.0 * np.sqrt(-t2))
    frozen = float(
        np.max(np.abs(np.sort(closed.mu.real) - np.array([-formula.real, formula.real])))
    )
    ok = worst < 1e-9 and frozen < 1e-12
    _line(
        2,
        "critical weights, functional vs product route",
        ok,
        "route gap %.3e < 1e-9, frozen n=2 defect %.3e < 1e-12" % (worst, frozen),
    )
    assert ok


def test_criterion_3_cardy_both_routes():
    canonical = [matrix_cf(2, mu) for mu in (1.0, 0.7 - 0.3j, 2.5j)]
    canonical += [quaternionic_cf(rho) for rho in (1.0, 0.6 + 0.8j, -1.3)]
    worst = 0.0
    gap = 0.0
    for cf in canonical + [m.cf for m in _sample_models()]:
        rep = verify_cardy_frobenius(cf)
        tr = rep.residuals["cardy_trace"]
        co = rep.residuals["cardy_coordinate"]
        worst = max(worst, tr, co)
        gap = max(gap, abs(tr - co))
    _, iso = m2_quaternion_isomorphism()
    ok = worst < 1e-9 and gap < 1e-10 and iso < 1e-12
    _line(
        3,
        "transfer identity, trace and coordinate routes",
        ok,
        "worst %.3e < 1e-9, route gap %.3e < 1e-10, matrix/quaternion iso %.3e < 1e-12"
        % (worst, gap, iso),
    )
    assert ok


def test_criterion_4_flat_chart():
    rng = np.random.default_rng(11)
    worst_lead = 0.0
    worst_metric = 0.0
    worst_euler = 0.0
    count = 0
    while count < 20:
        n = 2 + count % 4
        a = rng.uniform(-2, 2, n) + 1j * rng.uniform(-1, 1, n)
        try:
            chart = flat_chart(n=n, a=tuple(a))
            grading = euler_check(chart)
        except (DegenerateModelError, ValueError):
            continue
        worst_lead = max(
            worst_lead,
            abs(chart.ttilde[0] + a[0] / (n + 1)),
            abs(chart.ttilde[1] + a[1] / (n + 1)),
        )
        worst_metric = max(worst_metric, chart.metric_residual)
        worst_euler = max(worst_euler, max(grading.values()))
        count += 1
    ok = worst_lead < 1e-12 and worst_metric < 1e-8 and worst_euler < 1e-8
    _line(
        4,
        "flat chart over 20 random points, n <= 5",
        ok,
        "leading coords %.3e < 1e-12, metric %.3e < 1e-8, grading %.3e < 1e-8"
        % (worst_lead, worst_metric, worst_euler),
    )
    assert ok


def test_criterion_5_potential_reconstruction_n2():
    pot, fit = reconstruct_potential(2, sample_count=60)
    beta1 = pot.terms[(2, 1)]
    beta2 = pot.terms[(0, 4)]
    worst = 0.0
    for chart in sample_charts(2, 12, seed=123):
        c = structure_tensor(chart=chart)
        worst = max(worst, abs(c[1, 1, 1] - 24.0 * beta2 * chart.t[1]))
    ok = fit < 1e-9 and abs(beta1 - 0.5) < 1e-8 and worst < 1e-8
    _line(
        5,
        "n=2 potential reconstruction",
        ok,
        "fit %.3e < 1e-9, quadratic-cubic coeff |%.10f - 0.5| < 1e-8, "
        "quartic vs sampled c222 %.3e < 1e-8, ratio to 1/24 = %.6f (reported only)"
        % (fit, beta1.real, worst, (beta2 * 24.0).real),
    )
    assert ok


def test_criterion_6_wdvv_reconstructed_f3():
    pot, _fit = reconstruct_potential(3, sample_count=60)
    rng = np.random.default_rng(17)
    points = rng.uniform(-0.8, 0.8, (20, 3))
    rep = wdvv_check(pot, points)
    worst = max(rep.residuals.values())
    quartic = next(e for e in pot.terms if sum(e) == 4)
    bad = PotentialPoly(3, dict(pot.terms))
    bad.terms[quartic] = bad.terms[quartic] + 0.1
    control = wdvv_check(bad, points).residuals["associativity"]
    ok = worst < 1e-7 and control > 1e-3
    _line(
        6,
        "WDVV for reconstructed n=3 potential",
        ok,
        "worst residual %.3e < 1e-7, corrupted control %.3e > 1e-3" % (worst, control),
    )
    assert ok


def test_criterion_7_extended_wdvv():
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    rep = verify_bundle(model, t_degree=4, sample_points=2)
    worst = max(rep.conditions.residuals.values())
    ok = worst < 1e-8 and rep.routes_agree and rep.passed
    missed = []
    for name in CORRUPTIONS:
        broken = verify_bundle(model, t_degree=4, sample_points=2, corruption=name)
        fired = broken.conditions.residuals[PREDICTED_CONDITION[name]] > 1e-3
        if not (fired and broken.routes_agree):
            missed.append(name)
    ok = ok and not missed
    _line(
        7,
        "seven series conditions plus corruption controls",
        ok,
        "clean worst %.3e < 1e-8, routes agree %s, undetected corruptions %s"
        % (worst, rep.routes_agree, missed or "none"),
    )
    assert ok


def test_criterion_8_frame_flatness():
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    base = np.asarray(model.closed.p.a, dtype=complex)
    rng = np.random.default_rng(5)
    worst = 0.0
    worst_paper = 0.0
    for _ in range(10):
        step = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = tuple(base + 1e-2 * step / np.linalg.norm(step))
        worst = max(worst, frame_at(model, q)[-1])
        worst_paper = max(worst_paper, frame_at(model, q, paper_scale=True)[-1])
    ok = worst < 1e-8 and worst_paper > 1e-6
    _line(
        8,
        "form-preserving frame over 10 perturbed points",
        ok,
        "sqrt-scale drift %.3e < 1e-8, literal-scale drift %.3e > 1e-6 (nonzero)"
        % (worst, worst_paper),
    )
    assert ok


def test_criterion_9_cyclic_derivative_exact():
    f = TensorSeries(0, 3, 4)
    f.add_term((), (0, 1, 2), 1.0)
    g = TensorSeries(0, 1, 4)
    g.add_term((), (0, 0, 0), 1.0)
    h = TensorSeries(0, 3, 4)
    h.add_term((), (0, 1, 0, 2), 1.0)
    w = TensorSeries(0, 3, 7)
    w.add_term((), (0, 1, 2, 0, 1, 2), 1.0)
    checks = [
        d_sss(f, 0, 1, 2).terms == {((), ()): 1.0},
        d_sss(f, 0, 2, 1).terms == {},
        d_sss(f, 1, 2, 0).terms == {((), ()): 1.0},
        d_sss(g, 0, 0, 0).terms == {((), ()): 3.0},
        d_sss(h, 0, 1, 2).terms == {((), (0,)): 1.0},
        d_sss(w, 0, 1, 2).terms
        == {((), (0, 1, 2)): 2.0, ((), (2, 0, 1)): 2.0, ((), (1, 2, 0)): 2.0},
    ]
    ok = all(checks)
    _line(
        9,
        "cyclic triple derivative, hand-enumerated words",
        ok,
        "%d/%d exact integer matches" % (sum(checks), len(checks)),
    )
    assert ok
