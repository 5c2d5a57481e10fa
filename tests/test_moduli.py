"""Tests for charts, grading, structure tensors and potentials."""

import numpy as np
import pytest

from lgcardy import moduli
from lgcardy.moduli import (
    PotentialPoly,
    coefficients_from_flat,
    euler_check,
    flat_chart,
    potential_from_dict,
    potential_to_dict,
    reconstruct_potential,
    sample_charts,
    structure_tensor,
    wdvv_check,
)
from lgcardy.moduli import _ansatz, _sorted_triples, _third_derivative_basis
from lgcardy.polycore import DegenerateModelError, _weighted_exponents, _weights

from test_polycore import poly_mod

# step of the central differences in structure_gradient_residual
FD_STEP = 1e-6


def test_flat_chart_frozen_cubic():
    fc = flat_chart(n=2, a=(-3.0, 0.0))
    assert np.allclose(fc.ttilde, [1.0, 0.0])
    assert np.allclose(fc.t, [0.0, -1.0])
    # dp/dt^1 = 1 and dp/dt^2 = 3z
    assert np.allclose(fc.tangents[0], [1.0, 0.0])
    assert np.allclose(fc.tangents[1], [0.0, 3.0])
    assert fc.metric_residual < 1e-12


def test_flat_chart_frozen_quartic():
    fc = flat_chart(n=3, a=(2.0, 0.0, 1.0))
    # raw inversion coefficients: -a1/4, -a2/4, a1^2/32 - a3/4
    assert np.allclose(fc.ttilde, [-0.5, 0.0, -0.125])
    assert np.allclose(fc.t, [0.5, 0.0, 0.5])


def test_flat_chart_n1():
    fc = flat_chart(n=1, a=(5.0,))
    assert fc.t[0] == pytest.approx(5.0 * np.sqrt(2.0) / 2.0)
    assert fc.metric_residual < 1e-12


def test_unit_direction_is_constant_one():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        fc = flat_chart(n=n, a=a)
        expect = np.zeros(n)
        expect[0] = 1.0
        assert np.allclose(fc.tangents[0], expect, atol=1e-10)


def test_metric_constant_at_random_points():
    for n in (2, 3, 4, 5):
        for chart in sample_charts(n, 5, seed=10 + n):
            assert chart.metric_residual < 1e-8


def test_grading_weights():
    # a_1..a_3 carry 2, 3, 4; t^1..t^3 the same reversed, so the Euler
    # degrees of the flat coordinates are 1, 3/4 and 1/2
    assert _weights(3) == (2, 3, 4)
    assert np.array_equal(np.array(_weights(3)[::-1]) / 4.0, [1.0, 0.75, 0.5])
    # a monomial outside the ansatz: charge 4 * 0 + 3 * 4 + 2 * 0 = 12 against 10
    assert PotentialPoly(3, {(0, 4, 0): 0.1}).quasi_homogeneity_residual() == pytest.approx(0.05)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chart_jacobian_is_the_derivative_of_ttilde(n):
    # central differences of t~ along each a_k, against chart.jacobian[:, k]
    rng = np.random.default_rng(50 + n)
    a = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    chart = flat_chart(n=n, a=a)
    h = 1e-6
    for k in range(n):
        step = np.zeros(n, dtype=complex)
        step[k] = h
        fd = (flat_chart(n=n, a=a + step).ttilde - flat_chart(n=n, a=a - step).ttilde) / (2 * h)
        assert np.max(np.abs(chart.jacobian[:, k] - fd)) < 1e-7 * max(1.0, np.max(np.abs(fd)))


def test_euler_identities():
    res = euler_check(flat_chart(n=2, a=(-3.0, 0.0)))
    assert res["p_identity"] < 1e-14
    assert res["flat_scaling"] < 1e-12
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = euler_check(flat_chart(n=n, a=a))
        for v in res.values():
            assert v < 1e-10


def test_structure_tensor_frozen():
    c = structure_tensor(flat_chart(n=2, a=(-3.0, 0.0)))
    assert c[0, 0, 1] == pytest.approx(1.0)
    assert c[1, 1, 1] == pytest.approx(9.0)
    assert c[0, 0, 0] == pytest.approx(0.0, abs=1e-12)
    assert c[0, 1, 1] == pytest.approx(0.0, abs=1e-12)
    # symmetric in all slots
    assert np.allclose(c, c.transpose(1, 0, 2))
    assert np.allclose(c, c.transpose(0, 2, 1))


def test_structure_unit_row_is_metric():
    for chart in sample_charts(3, 3, seed=21):
        c = structure_tensor(chart=chart)
        flip = np.fliplr(np.eye(3))
        assert np.max(np.abs(c[0] - flip)) < 1e-9


def test_structure_tensor_against_root_sum():
    # independent route: c_ijk = sum_r mu_r u_i(alpha_r) u_j(alpha_r) u_k(alpha_r)
    from lgcardy.landau_ginzburg import build_closed
    from lgcardy.polycore import poly_eval

    for chart in sample_charts(4, 3, seed=31):
        closed = build_closed(p=chart.p)
        vals = np.array(
            [[poly_eval(chart.tangents[k], r) for r in closed.roots] for k in range(4)]
        )
        expect = np.einsum("r,ir,jr,kr->ijk", closed.mu, vals, vals, vals)
        c = structure_tensor(chart=chart)
        assert np.max(np.abs(c - expect)) < 1e-9


def _pairing_formula(chart):
    """c_ijk as l(((T_i T_j) mod p') T_k mod p') over the monomial functional
    values, one poly_mod per product, filled from i <= j <= k."""
    n = chart.n
    values = chart.closed.functional_values
    dp = chart.p.derivative_coeffs()

    def pair(u, v):
        w = poly_mod(np.convolve(u, v), dp)
        return complex(np.dot(w, values[: len(w)]))

    c = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            prod = poly_mod(np.convolve(chart.tangents[i], chart.tangents[j]), dp)
            for k in range(j, n):
                c[i, j, k] = pair(prod, chart.tangents[k])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i, j, k] = c[tuple(sorted((i, j, k)))]
    return c


def test_structure_tensor_matches_pairing_formula():
    rng = np.random.default_rng(2005)
    for scale in (0.8, 1e3):
        for n in range(1, 9):
            for _ in range(3):
                a = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
                chart = flat_chart(n=n, a=a)
                c = structure_tensor(chart)
                want = _pairing_formula(chart)
                assert np.max(np.abs(c - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
                for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
                    assert np.array_equal(c, c.transpose(perm))


def _monomial_third_derivatives(exps, t):
    """d_i d_j d_k t^exps by lowering one exponent at a time."""
    n = len(exps)
    out = np.zeros((n, n, n), dtype=complex)
    exps = np.array(exps)
    for i in range(n):
        if exps[i] == 0:
            continue
        ei = exps.copy()
        fi = ei[i]
        ei[i] -= 1
        for j in range(n):
            if ei[j] == 0:
                continue
            ej = ei.copy()
            fj = ej[j]
            ej[j] -= 1
            for k in range(n):
                if ej[k] == 0:
                    continue
                ek = ej.copy()
                fk = ek[k]
                ek[k] -= 1
                out[i, j, k] += fi * fj * fk * np.prod(t**ek)
    return out


def _falling_factorial_basis(exponents, points):
    """The former body of ``_third_derivative_basis``: the falling
    factorials and powers formed in place, the reference the monomial
    calculus must match bit for bit."""
    t = np.asarray(points, dtype=complex)
    count, n = t.shape
    e = np.asarray(exponents, dtype=int).reshape(len(exponents), n)
    hits = (_sorted_triples(n)[0][:, :, None] == np.arange(n)).sum(axis=1)
    factor = np.ones((len(e), len(hits)), dtype=int)
    for s in range(3):
        factor *= np.prod(np.where(hits > s, e[:, None, :] - s, 1), axis=2)
    m, q = np.nonzero(factor)
    lowered = e[m] - hits[q]
    powers = t[:, :, None] ** np.arange(lowered.max(initial=0) + 1)
    out = np.zeros((count, len(e), len(hits)), dtype=complex)
    out[:, m, q] = factor[m, q] * np.prod(powers[:, np.arange(n), lowered], axis=-1)
    return out


def test_third_derivative_basis_matches_monomial_loop():
    rng = np.random.default_rng(8)
    for n in range(1, 7):
        exponents = (_weighted_exponents(tuple(range(n + 1, 1, -1)), 2 * n + 4)
                     + [(0,) * n, (1,) + (0,) * (n - 1)])
        points = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
        basis = _third_derivative_basis(exponents, points)
        assert np.array_equal(basis, _falling_factorial_basis(exponents, points))
        triples, position = _sorted_triples(n)
        assert basis.shape == (4, len(exponents), len(triples))
        assert len(triples) == n * (n + 1) * (n + 2) // 6
        for p, t in enumerate(points):
            for m, exps in enumerate(exponents):
                want = _monomial_third_derivatives(exps, t)
                got = basis[p, m][position]
                assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_wdvv_check_matches_pointwise_formula():
    """The batched check against the per-point residuals, clean and bumped."""
    F, _ = reconstruct_potential(3, sample_count=40)
    bumped = potential_from_dict(potential_to_dict(F))
    bumped.terms[(0, 4, 0)] = bumped.terms.get((0, 4, 0), 0.0) + 0.1
    points = np.random.default_rng(9).uniform(-0.8, 0.8, size=(12, 3))
    flip = np.fliplr(np.eye(3))
    for pot in (F, bumped):
        assoc = norm = 0.0
        for t in points:
            d3 = sum(coeff * _monomial_third_derivatives(exps, t)
                     for exps, coeff in pot.terms.items())
            left = np.einsum("ijq,qr,klr->ijkl", d3, flip, d3)
            assoc = max(assoc, np.max(np.abs(left - left.transpose(2, 1, 0, 3))))
            norm = max(norm, np.max(np.abs(d3[:, :, 0] - flip)))
        rep = wdvv_check(pot, points)
        for name, want in (("associativity", assoc), ("normalization", norm)):
            assert abs(rep.residuals[name] - want) <= 1e-12 * max(1.0, want)
    assert rep.residuals["associativity"] > 1e-3
    assert wdvv_check(F, []).residuals["associativity"] == 0.0


def _random_potential(n, rng):
    """Random complex coefficients on the monomials of the fit's ansatz."""
    exponents = list(map(tuple, _ansatz(n).tolist()))
    coeffs = rng.normal(size=len(exponents)) + 1j * rng.normal(size=len(exponents))
    return PotentialPoly(n, dict(zip(exponents, coeffs.tolist())))


@pytest.mark.parametrize("n", range(2, 9))
def test_wdvv_check_matches_three_operand_einsum(n):
    """The per-point matrix products against the einsum over the stack."""
    rng = np.random.default_rng(60 + n)
    pot = _random_potential(n, rng)
    points = rng.uniform(-0.8, 0.8, size=(20, n))
    flip = np.fliplr(np.eye(n))
    d3 = pot._third_derivatives_at(points)
    left = np.einsum("pijq,qr,pklr->pijkl", d3, flip, d3)
    want = np.max(np.abs(left - left.transpose(0, 3, 2, 1, 4)))
    got = wdvv_check(pot, points).residuals["associativity"]
    assert n == 2 or want > 1e-3  # two flat directions are always associative
    assert abs(got - want) <= 1e-13 * max(1.0, want)


def test_third_derivatives_do_not_depend_on_term_order():
    rng = np.random.default_rng(61)
    for n in range(2, 7):
        pot = _random_potential(n, rng)
        points = rng.uniform(-0.8, 0.8, size=(10, n))
        items = list(pot.terms.items())
        for order in (rng.permutation(len(items)), range(len(items) - 1, -1, -1)):
            shuffled = PotentialPoly(n, dict(items[k] for k in order))
            assert list(shuffled.terms) != list(pot.terms)
            assert np.array_equal(shuffled._third_derivatives_at(points),
                                  pot._third_derivatives_at(points))


def structure_gradient_residual(chart):
    """Symmetry defect of the flat gradient of the structure tensor.

    Central differences of c_ijk along t^l are compared against the
    derivative along t^i of c_ljk: total symmetry of the four-index
    array is what makes a potential exist locally.
    """
    n = chart.n
    step = FD_STEP
    a0 = np.asarray(chart.p.a, dtype=complex)
    grad = np.zeros((n, n, n, n), dtype=complex)
    for l in range(n):
        shift = np.zeros(n, dtype=complex)
        shift[l] = step
        a_plus = coefficients_from_flat(n, chart.t + shift, a0=a0)
        a_minus = coefficients_from_flat(n, chart.t - shift, a0=a0)
        c_plus = structure_tensor(flat_chart(n=n, a=a_plus))
        c_minus = structure_tensor(flat_chart(n=n, a=a_minus))
        grad[l] = (c_plus - c_minus) / (2 * step)
    residual = 0.0
    for perm in ((1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)):
        residual = max(residual, float(np.max(np.abs(grad - grad.transpose(perm)))))
    return residual


def test_structure_gradient_symmetry():
    chart = flat_chart(n=3, a=(0.4, -0.9, 0.3))
    res = structure_gradient_residual(chart)
    assert res < 100 * FD_STEP


def test_coefficients_from_flat_round_trip(monkeypatch):
    rng = np.random.default_rng(17)
    for n in (2, 3, 4):
        a = 0.7 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        fc = flat_chart(n=n, a=a)
        back = coefficients_from_flat(n, fc.t)
        assert np.max(np.abs(back - a)) < 1e-10
    # a row still moving when the steps run out is refused
    monkeypatch.setattr(moduli, "FLAT_NEWTON_STEPS", 0)
    with pytest.raises(DegenerateModelError, match="flat coordinate inversion did not converge"):
        coefficients_from_flat(n, fc.t)


def test_reconstruct_potential_n2():
    F, fit = reconstruct_potential(2, sample_count=40)
    assert fit < 1e-9
    assert F.terms[(2, 1)] == pytest.approx(0.5, abs=1e-8)
    assert F.terms[(0, 4)] == pytest.approx(-0.375, abs=1e-8)
    # the quartic coefficient sits at -9 times the reference value 1/24
    assert F.terms[(0, 4)] / (1.0 / 24.0) == pytest.approx(-9.0, abs=1e-6)
    assert F.quasi_homogeneity_residual() < 1e-12


def test_reconstruct_potential_n1():
    F, fit = reconstruct_potential(1, sample_count=10)
    assert fit < 1e-9
    assert F.terms[(3,)] == pytest.approx(np.sqrt(2.0) / 6.0, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_fitted_potential_is_exactly_quasi_homogeneous(n):
    # every fitted monomial lies in the ansatz, so each charge defect is 0
    assert reconstruct_potential(n)[0].quasi_homogeneity_residual() == 0.0


def test_reconstruction_matches_fresh_samples():
    F, _ = reconstruct_potential(2, sample_count=40, seed=42)
    for chart in sample_charts(2, 50, seed=4242):
        c = structure_tensor(chart=chart)
        d3 = F._third_derivatives_at([chart.t])[0]
        assert np.max(np.abs(d3 - c)) < 1e-7


def test_wdvv_check_n3():
    F, fit = reconstruct_potential(3, sample_count=60)
    assert fit < 1e-9
    pts = [chart.t for chart in sample_charts(3, 20, seed=77)]
    rep = wdvv_check(F, pts)
    assert rep.passed, rep.summary()
    assert rep.residuals["associativity"] < 1e-7
    assert rep.residuals["normalization"] < 1e-7
    assert rep.residuals["quasi_homogeneity"] < 1e-10
    # a quartic bump of size 0.1 breaks associativity hard
    F.terms[(0, 4, 0)] = F.terms.get((0, 4, 0), 0.0) + 0.1
    rep = wdvv_check(F, pts)
    assert rep.residuals["associativity"] > 1e-3
    assert rep.residuals["quasi_homogeneity"] > 1e-3
    # a NaN coefficient makes every residual that reads it NaN
    F.terms[(0, 4, 0)] = np.nan
    rep = wdvv_check(F, pts)
    assert np.isnan(rep.residuals["associativity"])
    assert np.isnan(rep.residuals["quasi_homogeneity"])


def test_index_reversal_convention():
    # the library writes one labelling; a payload relabelled t^i -> t^(n+1-i)
    # and marked as such is read back into it exactly
    F, fit = reconstruct_potential(3, sample_count=40)
    assert fit < 1e-9
    data = potential_to_dict(F)
    assert data["index_reversal"] is False
    data["index_reversal"] = True
    for row in data["monomials"]:
        row["exponents"].reverse()
    back = potential_from_dict(data)
    assert back.terms == F.terms
    pts = [c.t for c in sample_charts(3, 10, seed=55)]
    rep = wdvv_check(back, pts)
    assert rep.passed, rep.summary()


def test_potential_json_round_trip():
    F, _ = reconstruct_potential(2, sample_count=30)
    data = potential_to_dict(F)
    assert data["n"] == 2
    assert {tuple(m["exponents"]) for m in data["monomials"]} == {(2, 1), (0, 4)}
    back = potential_from_dict(data)
    assert back.terms.keys() == F.terms.keys()
    t = np.array([0.3, -0.7])
    def value(pot):
        return sum(c * np.prod(t ** np.array(e)) for e, c in pot.terms.items())

    assert value(back) == pytest.approx(value(F))
    assert np.allclose(back._third_derivatives_at([t]), F._third_derivatives_at([t]))
