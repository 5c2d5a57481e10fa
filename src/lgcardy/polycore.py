"""Polynomial ground layer.

Everything downstream works with one-variable complex polynomials in the
ascending coefficient convention of numpy.polynomial: ``coeffs[k]`` is the
coefficient of ``z**k``.  The module provides

* exact-arithmetic helpers (add, multiply, remainder, derivative),
* the depressed monic family ``z**(n+1) + a_1 z**(n-1) + ... + a_n``,
* critical point extraction with a Newton polish and degeneracy guards,
* the residue-at-infinity functional computed along two independent
  routes that cross-check each other,
* small multivariate polynomials over exponent dictionaries, and
* Laurent series reversion, numeric and symbolic, used by the flat chart.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ToleranceConfig",
    "DegenerateModelError",
    "LGPolynomial",
    "poly_trim",
    "poly_add",
    "poly_mul",
    "poly_mod",
    "poly_derivative",
    "poly_eval",
    "critical_points",
    "residue_functional",
    "lagrange_basis",
    "MultiPoly",
    "LaurentSeries",
    "revert_series",
    "reversion_polynomials",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared across the package.

    eq_tol:       generic equality threshold for residuals.
    root_sep_tol: minimal allowed distance between critical points.
    fd_step:      step used by finite-difference cross-checks.
    """

    eq_tol: float = 1e-9
    root_sep_tol: float = 1e-8
    fd_step: float = 1e-6


# Bound on the relative defect of a refined critical point and on the
# disagreement of the two residue routes.  It judges whether the model
# is computable at all, so it does not move with the residual tolerance
# (1e3 times the default eq_tol).
DEGENERACY_TOL = 1e-6


class DegenerateModelError(ValueError):
    """Raised when a polynomial leaves the Morse regime (colliding critical
    points, vanishing second derivative) or an operation needs data the
    model cannot provide."""


def poly_trim(c, tol=0.0):
    """Drop trailing (highest-degree) coefficients that are exactly zero,
    or smaller than ``tol`` when given.  Always keeps at least one entry."""
    c = np.asarray(c, dtype=complex)
    n = len(c)
    while n > 1 and abs(c[n - 1]) <= tol:
        n -= 1
    return c[:n].copy()


def poly_add(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    out[: len(b)] += b
    return poly_trim(out)


def poly_mul(a, b):
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return np.convolve(a, b)


def poly_derivative(a):
    a = np.asarray(a, dtype=complex)
    if len(a) == 1:
        return np.zeros(1, dtype=complex)
    return poly_trim(a[1:] * np.arange(1, len(a)))


def poly_eval(a, z):
    return np.polynomial.polynomial.polyval(z, np.asarray(a, dtype=complex))


def poly_mod(a, m):
    """Remainder of ``a`` modulo ``m`` by synthetic division.

    The divisor's leading coefficient must be nonzero; the dividend is
    reduced degree by degree, so no spurious small coefficients survive at
    the top end.
    """
    a = poly_trim(np.asarray(a, dtype=complex))
    m = poly_trim(np.asarray(m, dtype=complex))
    dm = len(m) - 1
    if dm == 0 and m[0] == 0:
        raise ZeroDivisionError("zero divisor polynomial")
    if dm == 0:
        return np.zeros(1, dtype=complex)
    r = a.copy()
    lead = m[dm]
    for k in range(len(r) - 1, dm - 1, -1):
        q = r[k] / lead
        if q != 0:
            r[k] = 0.0
            r[k - dm : k] -= q * m[:dm]
        else:
            r[k] = 0.0
    return poly_trim(r[:dm] if len(r) > dm else r)


@dataclass(frozen=True)
class LGPolynomial:
    """Depressed monic potential ``p(z) = z**(n+1) + a_1 z**(n-1) + ... + a_n``.

    ``a`` stores ``(a_1, ..., a_n)``; note the missing ``z**n`` term.
    """

    n: int
    a: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        a = tuple(complex(x) for x in self.a)
        if len(a) != self.n:
            raise ValueError("expected %d deformation coefficients, got %d" % (self.n, len(a)))
        object.__setattr__(self, "a", a)

    def coeffs(self):
        """Ascending coefficient array of length n + 2."""
        c = np.zeros(self.n + 2, dtype=complex)
        c[self.n + 1] = 1.0
        for j, aj in enumerate(self.a, start=1):
            c[self.n + 1 - (j + 1)] = aj
        return c

    def derivative_coeffs(self):
        return poly_derivative(self.coeffs())

    def eval(self, z):
        return poly_eval(self.coeffs(), z)


def critical_points(p, tol=None):
    """Sorted critical points of an LGPolynomial (roots of p').

    Roots come from the companion matrix and are then polished with a few
    Newton steps.  They are sorted by (real, imag) so the ordering is a
    deterministic function of the model.  Raises DegenerateModelError when
    two critical points come closer than ``root_sep_tol``.
    """
    tol = tol or ToleranceConfig()
    dp = p.derivative_coeffs()
    ddp = poly_derivative(dp)
    roots = np.roots(dp[::-1])
    for _ in range(3):
        val = poly_eval(dp, roots)
        slope = poly_eval(ddp, roots)
        safe = np.abs(slope) > 1e-300
        step = np.where(safe, val / np.where(safe, slope, 1.0), 0.0)
        roots = roots - step
    scale = np.maximum(1.0, np.abs(roots) ** p.n)
    if np.any(np.abs(poly_eval(dp, roots)) > DEGENERACY_TOL * scale):
        raise DegenerateModelError("critical point refinement did not converge")
    order = np.lexsort((roots.imag, roots.real))
    roots = roots[order]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < tol.root_sep_tol:
                raise DegenerateModelError("degenerate critical points")
    return roots


def _laurent_inverse(c, depth):
    """Coefficients b_0..b_depth of the expansion 1/P = sum_j b_j z**(-d-j)
    at infinity, for P with ascending coefficients ``c`` of exact degree d."""
    c = poly_trim(np.asarray(c, dtype=complex))
    d = len(c) - 1
    lead = c[d]
    b = np.zeros(depth + 1, dtype=complex)
    b[0] = 1.0 / lead
    for t in range(1, depth + 1):
        acc = 0.0 + 0.0j
        for k in range(1, min(t, d) + 1):
            acc += c[d - k] * b[t - k]
        b[t] = -acc / lead
    return b


def _residues(rows, p, roots, tol):
    """residue_functional on each row of ``rows`` (ascending coefficients
    of equal length) at the critical points ``roots`` of p: both routes,
    for all rows in one vectorised pass."""
    ddp = poly_derivative(p.derivative_coeffs())
    curv = poly_eval(ddp, roots)
    if np.any(np.abs(curv) < tol.root_sep_tol):
        raise DegenerateModelError("vanishing second derivative at a critical point")
    val_pf = np.sum(np.polynomial.polynomial.polyval(roots, rows.T) / curv, axis=-1)

    n, width = p.n, rows.shape[1]
    b = _laurent_inverse(p.derivative_coeffs(), max(0, width - n))
    val_lr = rows[:, n - 1 :] @ b[: max(0, width - n + 1)]
    bad = np.abs(val_pf - val_lr) > DEGENERACY_TOL * np.maximum(1.0, np.abs(val_pf))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateModelError("residue routes disagree: %r vs %r" % (val_pf[k], val_lr[k]))
    return val_pf


def residue_functional(q, p, tol=None):
    """Value of the trace functional on the class of ``q``: the coefficient
    of 1/z in the Laurent expansion of q/p' at infinity.

    Two independent routes are evaluated: a partial-fraction sum over the
    critical points, and the Laurent inverse of p' contracted with q.  Their
    disagreement raises DegenerateModelError, so a returned value is always
    a cross-checked one.
    """
    tol = tol or ToleranceConfig()
    q = poly_trim(np.asarray(q, dtype=complex))
    return complex(_residues(q[None, :], p, critical_points(p, tol), tol)[0])


def _lagrange_rows(roots):
    """The basis of lagrange_basis as the rows of an array."""
    n = len(roots)
    basis = np.zeros((n, n), dtype=complex)
    for i, ai in enumerate(roots):
        num = np.array([1.0 + 0.0j])
        denom = 1.0 + 0.0j
        for j, aj in enumerate(roots):
            if j == i:
                continue
            num = poly_mul(num, np.array([-aj, 1.0], dtype=complex))
            denom *= ai - aj
        basis[i] = num / denom
    return basis


def lagrange_basis(p, tol=None):
    """Lagrange interpolation basis at the critical points of p.

    Returns (roots, basis) where basis[i] is the ascending coefficient
    array of the degree n-1 polynomial with value 1 at roots[i] and 0 at
    the others.  These represent the idempotents of the quotient algebra.
    """
    roots = critical_points(p, tol or ToleranceConfig())
    return roots, list(_lagrange_rows(roots))


class MultiPoly:
    """Sparse polynomial in ``nvars`` commuting variables over the complex
    numbers.  Terms live in a dict mapping exponent tuples to coefficients.
    Only the small amount of algebra the flat chart needs is implemented.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = complex(c)
                if c != 0:
                    self.terms[tuple(e)] = self.terms.get(tuple(e), 0.0) + c
            self.terms = {e: c for e, c in self.terms.items() if c != 0}

    @classmethod
    def constant(cls, nvars, c):
        if c == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: complex(c)})

    @classmethod
    def variable(cls, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1.0})

    def copy(self):
        out = MultiPoly(self.nvars)
        out.terms = dict(self.terms)
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0.0) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        res = MultiPoly(self.nvars)
        res.terms = out
        return res

    __radd__ = __add__

    def __neg__(self):
        res = MultiPoly(self.nvars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MultiPoly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            res = MultiPoly(self.nvars)
            if c != 0:
                res.terms = {e: v * c for e, v in self.terms.items()}
            return res
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e, 0.0) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        res = MultiPoly(self.nvars)
        res.terms = out
        return res

    __rmul__ = __mul__

    def diff(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
        res = MultiPoly(self.nvars)
        res.terms = out
        return res

    def eval(self, values):
        values = np.asarray(values, dtype=complex)
        total = 0.0 + 0.0j
        for e, c in self.terms.items():
            term = c
            for i, k in enumerate(e):
                if k:
                    term = term * values[i] ** k
            total += term
        return total

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for e in sorted(self.terms):
            bits.append("%r*x^%r" % (self.terms[e], list(e)))
        return "MultiPoly(" + " + ".join(bits) + ")"


def _is_zero_coeff(c):
    if isinstance(c, MultiPoly):
        return not c.terms
    return c == 0


class LaurentSeries:
    """Finite Laurent polynomial in one symbol with coefficients in either
    the complex numbers or MultiPoly.  ``floor`` marks the lowest exponent
    kept; anything produced below it is discarded, which is the truncation
    the series reversion relies on."""

    __slots__ = ("terms", "floor")

    def __init__(self, terms, floor):
        self.floor = floor
        self.terms = {e: c for e, c in terms.items() if e >= floor and not _is_zero_coeff(c)}

    def mul(self, other, floor):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if e < floor:
                    continue
                if e in out:
                    out[e] = out[e] + c1 * c2
                else:
                    out[e] = c1 * c2
        return LaurentSeries(out, floor)

    def add_const(self, c):
        out = dict(self.terms)
        if 0 in out:
            out[0] = out[0] + c
        else:
            out[0] = c
        return LaurentSeries(out, self.floor)

    def coeff(self, e, zero):
        return self.terms.get(e, zero)


def _revert_engine(avals, n, order, one):
    """Shared reversion core.

    ``avals`` holds the deformation coefficients a_1..a_n as ring elements
    (complex numbers or MultiPoly), ``one`` is the ring unit.  Returns the
    list of reversion coefficients tt[0..order-1], where the inverse branch
    is z = w + sum_k tt[k-1] * w**(-k) and w**(n+1) = p(z).
    """
    zero = one * 0
    z_terms = {1: one}
    tt = []
    scale = -1.0 / (n + 1)
    for k in range(1, order + 1):
        # The target coefficient sits at exponent n - k.  Terms may dip and
        # rise again during the Horner loop (each factor of z raises
        # exponents by at most one, and there are n + 1 factors), so keep
        # everything from n - k - (n + 1) = -(k + 1) upward.
        floor = -(k + 1)
        z = LaurentSeries(dict(z_terms), floor)
        # Horner over descending coefficients [1, 0, a_1, ..., a_n]
        acc = LaurentSeries({0: one}, 0)
        descending = [zero] + list(avals)
        for c in descending:
            acc = acc.mul(z, floor)
            if not _is_zero_coeff(c):
                acc = acc.add_const(c)
        ck = acc.coeff(n - k, zero)
        tk = ck * scale
        tt.append(tk)
        if not _is_zero_coeff(tk):
            z_terms[-k] = tk
    return tt


def revert_series(p, order=None):
    """Numeric reversion coefficients of ``w**(n+1) = p(z)`` at infinity.

    Returns a complex array tt with tt[k-1] the coefficient of w**(-k) in
    the inverse branch z(w).  Defaults to ``order = n`` terms, which is
    what the flat chart consumes.
    """
    n = p.n
    if order is None:
        order = n
    tt = _revert_engine(list(p.a), n, order, 1.0 + 0.0j)
    return np.array(tt, dtype=complex)


@functools.lru_cache(maxsize=None)
def reversion_polynomials(n, order=None):
    """Symbolic reversion coefficients as polynomials in a_1..a_n.

    Entry k-1 is a MultiPoly in n variables giving tt[k] as a polynomial in
    the deformation coefficients.  Cached per (n, order).
    """
    if order is None:
        order = n
    avals = [MultiPoly.variable(n, i) for i in range(n)]
    one = MultiPoly.constant(n, 1.0)
    return tuple(_revert_engine(avals, n, order, one))
