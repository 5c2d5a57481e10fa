"""Tests for the polynomial ground layer."""

import importlib

import numpy as np
import pytest
import sympy

from lgcardy.polycore import (
    DegenerateModelError,
    LGPolynomial,
    _lagrange_rows,
    _weighted_exponents,
    critical_points,
    poly_derivative,
    poly_eval,
    poly_trim,
    residue_functional,
    reversion_polynomials,
)
from lgcardy.moduli import _reversion_table, sample_charts


def poly_mod(a, m):
    """Remainder of ``a`` modulo ``m`` by synthetic division, degree by
    degree: the written-out reference of the reduction table z^k mod p'."""
    a = poly_trim(np.asarray(a, dtype=complex))
    m = poly_trim(np.asarray(m, dtype=complex))
    dm = len(m) - 1
    if dm == 0 and m[0] == 0:
        raise ZeroDivisionError("zero divisor polynomial")
    if dm == 0:
        return np.zeros(1, dtype=complex)
    r = a.copy()
    for k in range(len(r) - 1, dm - 1, -1):
        q = r[k] / m[dm]
        r[k] = 0.0
        if q != 0:
            r[k - dm : k] -= q * m[:dm]
    return poly_trim(r[:dm] if len(r) > dm else r)


def evaluate(terms, a):
    """An exponent dictionary {exponents: coefficient} at the point a,
    summed one monomial at a time."""
    total = 0j
    for e, c in terms.items():
        for x, k in zip(a, e):
            c = c * complex(x) ** k
        total += c
    return total


def _tt(a, order=None):
    """The reversion coefficients at the point a."""
    return np.array([evaluate(q, a) for q in reversion_polynomials(len(a), order)])


def _power_series_reversion(a):
    """tt_k = -(1/k) [u**(k+1)] (1 + sum_j a_j u**(j+1))**(k/(n+1)) for
    k = 1..n at the complex point a, each power series raised by J. C. P.
    Miller's recurrence g_i = (1/i) sum_j ((alpha + 1) j - i) f_j g_(i-j)."""
    n = len(a)
    f = np.concatenate(([1.0, 0.0], a))
    tt = []
    for k in range(1, n + 1):
        alpha = k / (n + 1)
        g = np.zeros(k + 2, dtype=complex)
        g[0] = 1.0
        for i in range(1, k + 2):
            j = np.arange(1, i + 1)
            g[i] = np.sum(((alpha + 1) * j - i) * f[j] * g[i - j]) / i
        tt.append(-g[k + 1] / k)
    return np.array(tt)


def _sympy_reversion(n, order):
    """The reversion coefficients by undetermined coefficients: with
    z = (1 + sum_k c_k u**(k+1)) / u and w = 1/u, u**(n+1) p(z) = 1 fixes
    c_k from the coefficient of u**(k+1), one order at a time."""
    a = sympy.symbols("a1:%d" % (n + 1))
    u, ck = sympy.symbols("u c")
    known = []
    for k in range(1, order + 1):
        s = sum(c * u ** (j + 1) for j, c in enumerate(known + [ck], start=1))
        scaled = (1 + s) ** (n + 1) + sum(a[j - 1] * u ** (j + 1) * (1 + s) ** (n - j)
                                          for j in range(1, n + 1))
        coeff = sympy.expand(scaled).coeff(u, k + 1)
        known.append(sympy.expand(sympy.solve(coeff, ck)[0]))
    return [sympy.Poly(c, *a).as_dict() for c in known]


def test_lgpolynomial_coeff_layout():
    # p = z^3 - 3z  (n = 2, a_1 = -3, a_2 = 0)
    p = LGPolynomial(2, (-3, 0))
    assert np.allclose(p.coeffs(), [0, -3, 0, 1])
    assert p.eval(2.0) == pytest.approx(2.0)
    assert np.allclose(p.derivative_coeffs(), [-3, 0, 3])


def test_lgpolynomial_validation():
    with pytest.raises(ValueError):
        LGPolynomial(0, ())
    with pytest.raises(ValueError):
        LGPolynomial(2, (1.0,))


def test_poly_mod_frozen():
    # z^2 mod (3z^2 - 3) = 1
    r = poly_mod([0, 0, 1], [-3, 0, 3])
    assert np.allclose(r, [1.0])
    # z^3 mod (3z^2 + 6) = -2z
    r = poly_mod([0, 0, 0, 1], [6, 0, 3])
    assert np.allclose(r, [0.0, -2.0])


def test_poly_mod_reconstruction():
    rng = np.random.default_rng(7)
    for _ in range(25):
        da = rng.integers(0, 7)
        dm = rng.integers(1, 5)
        a = rng.normal(size=da + 1) + 1j * rng.normal(size=da + 1)
        m = rng.normal(size=dm + 1) + 1j * rng.normal(size=dm + 1)
        m[-1] += 3.0  # keep the leading coefficient well away from zero
        r = poly_mod(a, m)
        assert len(r) <= dm
        # check a - r is divisible by m at the roots of m
        roots = np.roots(m[::-1])
        diff = np.polynomial.polynomial.polysub(a, r)
        assert np.allclose(poly_eval(diff, roots), 0.0, atol=1e-8)


def test_poly_mod_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        poly_mod([1, 2], [0.0])


def test_trim_and_derivative():
    assert np.allclose(poly_trim([1, 2, 0, 0]), [1, 2])
    assert np.allclose(poly_trim([0.0]), [0.0])
    assert np.allclose(poly_derivative([5]), [0.0])
    assert np.allclose(poly_derivative([1, 2, 3]), [2, 6])


def test_critical_points_sorted():
    p = LGPolynomial(2, (-3, 0))
    roots = critical_points(p)
    assert np.allclose(roots, [-1.0, 1.0])


def test_critical_points_degenerate():
    p = LGPolynomial(2, (0, 0))  # p = z^3, double critical point at 0
    with pytest.raises(DegenerateModelError):
        critical_points(p)


def test_residue_frozen_values():
    p = LGPolynomial(2, (-3, 0))  # z^3 - 3z
    assert residue_functional([1.0], p) == pytest.approx(0.0, abs=1e-12)
    assert residue_functional([0, 1.0], p) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert residue_functional([0, 0, 1.0], p) == pytest.approx(0.0, abs=1e-12)


def test_residue_n1():
    # p = z^2 + 5, single critical point at 0 with p'' = 2
    p = LGPolynomial(1, (5,))
    assert residue_functional([1.0], p) == pytest.approx(0.5, abs=1e-12)
    assert residue_functional([0, 0, 1.0], p) == pytest.approx(0.0, abs=1e-12)


def test_residue_dual_route_random():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        p = LGPolynomial(n, tuple(a))
        try:
            q = rng.normal(size=2 * n + 1) + 1j * rng.normal(size=2 * n + 1)
            residue_functional(q, p)  # raises if the two routes disagree
        except DegenerateModelError:
            continue


def test_lagrange_basis_properties():
    p = LGPolynomial(2, (-3, 0))
    roots = critical_points(p)
    basis = _lagrange_rows(roots[None])[0]
    assert np.allclose(basis[0], [0.5, -0.5])
    assert np.allclose(basis[1], [0.5, 0.5])
    dp = p.derivative_coeffs()
    for i, ei in enumerate(basis):
        vals = poly_eval(ei, roots)
        expect = np.zeros(len(roots))
        expect[i] = 1.0
        assert np.allclose(vals, expect, atol=1e-10)
        sq = poly_mod(np.convolve(ei, ei), dp)
        sq = np.pad(sq, (0, max(0, len(ei) - len(sq))))
        assert np.allclose(sq[: len(ei)], ei, atol=1e-10)


def test_revert_series_frozen():
    # z^3 - 3z: reversion starts (1, 0)
    tt = _tt((-3, 0))
    assert np.allclose(tt, [1.0, 0.0], atol=1e-14)
    # leading terms are linear in the deformation coefficients
    tt = _tt((2.5, -0.75))
    assert tt[0] == pytest.approx(-2.5 / 3.0, abs=1e-14)
    assert tt[1] == pytest.approx(0.75 / 3.0, abs=1e-14)


def test_reversion_polynomials_frozen_n3():
    # third reversion coefficient for n=3 is a_1**2/32 - a_3/4
    polys = reversion_polynomials(3)
    t3 = polys[2]
    assert t3 == {(0, 0, 1): pytest.approx(-0.25), (2, 0, 0): pytest.approx(1.0 / 32.0)}
    t1 = polys[0]
    assert t1 == {(1, 0, 0): pytest.approx(-0.25)}


def test_reversion_symbolic_matches_numeric():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert np.allclose(_tt(a), _power_series_reversion(a), atol=1e-12)


def test_reversion_coefficients_match_sympy():
    # each coefficient is rounded once from its exact value
    for n in range(1, 5):
        want = _sympy_reversion(n, n)
        for order in range(1, n + 1):
            for q, exact in zip(reversion_polynomials(n, order), want):
                assert q == {e: complex(float(c)) for e, c in exact.items()}


def _reversion_table_by_dicts(n):
    """The former body of ``_reversion_table``: each derivative formed as an
    exponent dictionary, the reference the Taylor-factor table must match
    bit for bit."""
    polys = reversion_polynomials(n)
    columns = list(polys) + [
        {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k] for e, c in q.items() if e[k]}
        for q in polys for k in range(n)]
    exponents = sorted({e for q in columns for e in q})
    row = {e: m for m, e in enumerate(exponents)}
    coeffs = np.zeros((len(exponents), len(columns)), dtype=complex)
    for j, q in enumerate(columns):
        for e, c in q.items():
            coeffs[row[e], j] = c
    return np.array(exponents, dtype=int).reshape(len(exponents), n), coeffs


def test_reversion_table_derivatives_match_sympy():
    # every column of the table, the n polynomials and their n^2 first
    # derivatives, against sympy's diff of the exact polynomials: each
    # coefficient within one rounding of its exact value
    for n in range(1, 5):
        a = sympy.symbols("a1:%d" % (n + 1))
        polys = [sympy.Poly.from_dict(d, *a) for d in _sympy_reversion(n, n)]
        columns = polys + [q.diff(a[k]) for q in polys for k in range(n)]
        exponents, coeffs = _reversion_table(n)
        assert coeffs.shape == (len(exponents), n + n * n)
        want_exponents, want_coeffs = _reversion_table_by_dicts(n)
        assert np.array_equal(exponents, want_exponents)
        assert np.array_equal(coeffs, want_coeffs)
        for j, q in enumerate(columns):
            want = {e: float(c) for e, c in q.as_dict().items() if c != 0}
            got = {tuple(int(k) for k in e): c for e, c in zip(exponents, coeffs[:, j]) if c != 0}
            assert set(got) == set(want), (n, j)
            for e, c in want.items():
                assert abs(got[e] - c) <= np.spacing(abs(c)), (n, j, e, got[e], c)


def test_reversion_defines_branch():
    # substituting the truncated branch back into p should reproduce
    # w**(n+1) up to the truncation order
    rng = np.random.default_rng(12)
    for n in range(1, 9):
        a = 0.6 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        p = LGPolynomial(n, tuple(a))
        tt = _tt(a, order=12)
        w = 6.0  # large enough that the tail is negligible
        z = w + sum(tt[k - 1] * w ** (-k) for k in range(1, 13))
        assert abs(p.eval(z) - w ** (n + 1)) < 1e-9 * w ** (n + 1)


def test_weighted_exponents_order():
    # the first exponent varies slowest: this is the column order of the
    # potential ansatz
    assert _weighted_exponents((3, 2), 8) == [(0, 4), (2, 1)]
    assert _weighted_exponents((2, 3), 6) == [(0, 2), (3, 0)]
    assert _weighted_exponents((), 0) == [()]


def test_tighter_tolerances_still_met():
    # the polish loop reaches well below the default thresholds
    p = LGPolynomial(4, (0.4, -1.1, 0.2, 0.9))
    roots = critical_points(p)
    res = np.abs(poly_eval(p.derivative_coeffs(), roots))
    assert np.max(res) < 1e-10
    val = residue_functional([0, 0, 0, 1.0], p)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_root_sep_tol_is_the_one_separation_bound(monkeypatch):
    # building reads one separation bound, the module constant: raised in
    # every module that reads it, past any distance between critical
    # points, it refuses every model
    names = ("polycore", "frobenius", "cardy", "landau_ginzburg", "moduli",
             "tensor_series", "bundle", "cli")
    readers = [m for m in map(importlib.import_module, ["lgcardy." + x for x in names])
               if hasattr(m, "ROOT_SEP_TOL")]
    assert sorted(m.__name__ for m in readers) == ["lgcardy.bundle", "lgcardy.cardy",
                                                   "lgcardy.polycore"]
    p = LGPolynomial(2, (-3.0, 0.0))
    critical_points(p)
    sample_charts(2, 3)
    for module in readers:
        monkeypatch.setattr(module, "ROOT_SEP_TOL", 1e3)
    with pytest.raises(DegenerateModelError, match="degenerate critical points"):
        critical_points(p)
    with pytest.raises(DegenerateModelError, match="sampling kept hitting degenerate models"):
        sample_charts(2, 3)
