"""Polynomial ground layer.

Everything downstream works with one-variable complex polynomials in the
ascending coefficient convention of numpy.polynomial: ``coeffs[k]`` is the
coefficient of ``z**k``.  The module provides

* helpers to trim, differentiate and evaluate,
* the depressed monic family ``z**(n+1) + a_1 z**(n-1) + ... + a_n``,
* critical point extraction with three Newton steps and guards,
* the residue-at-infinity functional read off the Laurent inverse of p',
  which needs no critical point, cross-checked by the reductions
  z^k mod p' and, where the critical points are known, by partial fractions,
  both for one polynomial or for a stack of polynomials of one degree,
  whose guards then judge each polynomial on its own (``_Failures``),
* one evaluation rule: a polynomial is read at points as its
  coefficients contracted with the table of their powers (``_powers``),
* the one grading (``_weights``): a_j has weight j + 1, the flat
  t^1..t^n the same weights reversed, and the potential charge 2n + 4,
* the reversion coefficients of w**(n+1) = p(z) at infinity as
  polynomials in the coefficients, exponent dictionaries read from the
  Lagrange inversion formula, from which the flat chart reads its
  coordinates and their derivatives.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "EQ_TOL",
    "DegenerateModelError",
    "LGPolynomial",
    "poly_trim",
    "poly_derivative",
    "poly_eval",
    "critical_points",
    "residue_functional",
    "reversion_polynomials",
]


# The default tolerance of every judge (its ``tol``).
EQ_TOL = 1e-9

# Building a model reads these bounds and never a judge's ``tol``:
# DEGENERACY_TOL bounds the relative defect of a refined critical point
# and the disagreement of the residue routes, ROOT_SEP_TOL the separation
# of critical points (and |p''| at them), of the eigenvalues of
# decompose_commutative and of the frame continuation's matches.
DEGENERACY_TOL = 1e-6
ROOT_SEP_TOL = 1e-8


class DegenerateModelError(ValueError):
    """Raised when a polynomial leaves the Morse regime (colliding critical
    points, vanishing second derivative) or an operation needs data the
    model cannot provide."""


def poly_trim(c):
    """Drop trailing (highest-degree) coefficients that are exactly zero.
    Always keeps at least one entry."""
    c = np.asarray(c, dtype=complex)
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n].copy()


def poly_derivative(a):
    a = np.asarray(a, dtype=complex)
    if len(a) == 1:
        return np.zeros(1, dtype=complex)
    return poly_trim(a[1:] * np.arange(1, len(a)))


def poly_eval(a, z):
    return _powers(z, len(a) - 1) @ np.asarray(a, dtype=complex)


@dataclass(frozen=True)
class LGPolynomial:
    """Depressed monic potential ``p(z) = z**(n+1) + a_1 z**(n-1) + ... + a_n``.

    ``a`` stores ``(a_1, ..., a_n)``; note the missing ``z**n`` term.
    """

    n: int
    a: tuple = field(default=())

    def __post_init__(self):
        # operator.index refuses 2.9 and "2" with TypeError, but takes True
        if isinstance(self.n, bool) or operator.index(self.n) < 1:
            raise ValueError("need an integer n >= 1, got %r" % (self.n,))
        object.__setattr__(self, "n", operator.index(self.n))
        a = tuple(complex(x) for x in self.a)
        if len(a) != self.n:
            raise ValueError("expected %d deformation coefficients, got %d" % (self.n, len(a)))
        object.__setattr__(self, "a", a)

    def coeffs(self):
        """Ascending coefficient array of length n + 2."""
        return np.array(self.a[::-1] + (0.0, 1.0), dtype=complex)

    def derivative_coeffs(self):
        return poly_derivative(self.coeffs())

    def eval(self, z):
        return poly_eval(self.coeffs(), z)


class _Failures:
    """The first error met at each point of a stacked computation.

    A guard flags the points it refuses; a point keeps the first error
    flagged on it, which is the error a loop over the points would have
    raised there, and ``raise_first`` raises the one of the lowest point.
    A one-point computation raises through the same record.
    """

    def __init__(self, count):
        self.errors = [None] * count

    def flag(self, bad, error):
        """Record ``error(s)`` on every point s where ``bad`` is set."""
        if not bad.any():
            return
        for s in np.flatnonzero(bad):
            if self.errors[s] is None:
                self.errors[s] = error(s)

    @property
    def ok(self):
        return np.array([e is None for e in self.errors], dtype=bool)

    def raise_first(self):
        for e in self.errors:
            if e is not None:
                raise e


def _degenerate(message):
    """The error of ``_Failures.flag`` for a point refused as degenerate."""
    return lambda s: DegenerateModelError(message)


def _read_only(value):
    """``value`` with every array in it, through nested tuples and lists,
    made read-only: a cache shares them, so an edit in place must raise."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    return value


def critical_points(p):
    """Sorted critical points of an LGPolynomial (roots of p').

    Roots come from the companion matrix and are then polished with
    three Newton steps.  They are sorted by (real, imag) so the ordering
    is a deterministic function of the model.  Raises DegenerateModelError
    when two critical points come closer than ROOT_SEP_TOL.
    """
    failures = _Failures(1)
    roots = _critical_stack(p.derivative_coeffs()[None], failures, 0)[0]
    failures.raise_first()
    return roots[0]


def _powers(x, degree):
    """x**0 .. x**degree along a new last axis, as one running product."""
    table = np.asarray(x, dtype=complex)[..., None].repeat(degree + 1, axis=-1)
    table[..., 0] = 1.0
    return np.multiply.accumulate(table, axis=-1, out=table)


def _critical_stack(dp, failures, degree):
    """critical_points for a stack of derivatives p', one per row of ``dp``
    (ascending, leading coefficient n + 1).  The roots of the stack are the
    eigenvalues of its companion matrices of order n, one batched call,
    and each guard flags its rows in ``failures``.

    Each of the three Newton steps contracts one table of the powers of
    the roots with the (n + 1, 2) matrix of the coefficients of p' and
    p''.  After the sort one table, up to max(n, ``degree``), gives the
    convergence guard and p''; returns the sorted roots (S, n), that
    table and p'' at the roots."""
    n = dp.shape[-1] - 1
    derivs = np.zeros(dp.shape + (2,), dtype=complex)
    derivs[..., 0] = dp
    derivs[:, :n, 1] = dp[:, 1:] * np.arange(1, n + 1)
    companion = np.zeros((len(dp), n, n), dtype=complex)
    companion[:, 1:, :-1] = np.eye(n - 1)
    # 0.0 - x, not -x: a zero coefficient gives +0.0, so a root at 0 stays +0.0
    companion[:, 0] = (0.0 - dp[:, n - 1::-1]) / dp[:, n, None]
    roots = np.linalg.eigvals(companion)
    for _ in range(3):
        values = _powers(roots, n) @ derivs
        safe = np.abs(values[..., 1]) > 1e-300  # a root where p'' vanishes stays put
        roots = roots - np.divide(values[..., 0], values[..., 1],
                                  out=np.zeros(roots.shape, dtype=complex), where=safe)
    roots = roots[np.arange(len(roots))[:, None], np.lexsort((roots.imag, roots.real), axis=1)]
    table = _powers(roots, max(n, degree))
    values = table[..., :n + 1] @ derivs
    scale = np.maximum(1.0, np.abs(table[..., n]))
    failures.flag((np.abs(values[..., 0]) > DEGENERACY_TOL * scale).any(axis=1),
                  _degenerate("critical point refinement did not converge"))
    gaps = np.abs(roots[:, :, None] - roots[:, None, :])
    gaps[:, np.arange(n), np.arange(n)] = np.inf
    failures.flag((gaps < ROOT_SEP_TOL).any(axis=(1, 2)),
                  _degenerate("degenerate critical points"))
    return roots, table, values[..., 1]


@functools.lru_cache(maxsize=None)
def _hankel_index(n):
    """The (n, n) index a + b that gathers a Hankel matrix from a sequence,
    read-only, formed once per n."""
    return _read_only(np.add.outer(np.arange(n), np.arange(n)))


def _laurent_inverse(c, depth):
    """Coefficients b_0..b_depth of the expansion 1/P = sum_j b_j z**(-d-j)
    at infinity, for P with ascending coefficients ``c`` of exact degree d.
    ``c`` may hold a stack of polynomials of one degree along its trailing
    axes; b is indexed the same way, b[j] the j-th coefficient.  Each b_s
    is subtracted into the later sums as soon as it is found, so every sum
    runs in one order: a polynomial gets the same bits alone and in a stack."""
    c = np.asarray(c, dtype=complex)
    d = len(c) - 1
    below = c[d - 1::-1]  # c[d-1], ..., c[0]: the factors of b_s in b_(s+1), b_(s+2), ...
    b = np.zeros((depth + 1,) + c.shape[1:], dtype=complex)
    b[0] = 1.0
    for s in range(depth + 1):
        b[s] /= c[d]
        b[s + 1:s + 1 + d] -= below[:depth - s] * b[s]
    return b


def _laurent_values(dp, width):
    """l(z^k) = [z^-1] z^k / p', k = 0 .. width-1, for each row of ``dp``
    (p' of degree n), read off 1/p' = sum_j b_j z^(-n-j): b_(k-n+1) for
    k >= n-1 and 0 below.  Returns (S, width)."""
    n = dp.shape[-1] - 1
    values = np.zeros((len(dp), width), dtype=complex)
    if width >= n:
        values[:, n - 1:] = _laurent_inverse(dp.T, width - n).T
    return values


def _cross_check(values, other, route, failures):
    """Flag in ``failures`` each row of the functional ``values`` (S, width)
    that ``other``, the same values read by ``route``, contradicts: an entry
    apart by more than DEGENERACY_TOL max(1, |other|), or not finite, fails."""
    bad = ~(np.abs(other - values) <= DEGENERACY_TOL * np.maximum(1.0, np.abs(other)))
    failures.flag(bad.any(axis=1), lambda s: DegenerateModelError(
        "residue routes disagree: %s give %r, the Laurent inverse %r"
        % (route, other[s, np.argmax(bad[s])], values[s, np.argmax(bad[s])])))


def _partial_fractions(values, table, curv, failures):
    """Cross-check the functional ``values`` (S, width), l(z^k) for k < width,
    against the partial fractions sum_alpha alpha^k / p''(alpha), from the
    root powers ``table`` and p'' at the roots ``curv`` of ``_critical_stack``;
    each guard flags its polynomials in ``failures``."""
    width = values.shape[1]
    flat = (np.abs(curv) < ROOT_SEP_TOL).any(axis=1)
    if flat.any():
        failures.flag(flat, _degenerate("vanishing second derivative at a critical point"))
        curv = np.where(flat[:, None], 1.0, curv)
    val_pf = np.sum(table[..., :width] / curv[..., None], axis=1)
    _cross_check(values, val_pf, "partial fractions", failures)


def residue_functional(q, p):
    """Value of the trace functional on the class of ``q``: the coefficient
    of 1/z in the Laurent expansion of q/p' at infinity.

    The value is read off the Laurent inverse of p' and cross-checked by
    partial fractions over the critical points; their disagreement raises
    DegenerateModelError, so a returned value is always a cross-checked one.
    """
    q = poly_trim(np.asarray(q, dtype=complex))
    dp = p.derivative_coeffs()[None]
    failures = _Failures(1)
    values = _laurent_values(dp, len(q))
    _, table, curv = _critical_stack(dp, failures, len(q) - 1)
    _partial_fractions(values, table, curv, failures)
    failures.raise_first()
    return complex(values[0] @ q)


def _lagrange_rows(roots):
    """Lagrange basis at each row of ``roots`` (S, n): [s, i] holds the
    ascending coefficients of the polynomial that is 1 at roots[s, i] and
    0 at the other roots of the row.  One running product over the other
    roots, in ascending order, builds every row of the stack at once."""
    count, n = roots.shape
    # others[s, i]: the roots of row s but the i-th, in ascending order
    others = roots[:, np.arange(n - 1) + (np.arange(n - 1) >= np.arange(n)[:, None])]
    # num[..., 1:] holds the coefficients, num[..., :-1] the same shifted up
    num = np.zeros((count, n, n + 1), dtype=complex)
    num[..., 1] = 1.0
    for j in range(n - 1):
        num[..., 1:] = num[..., :-1] - others[..., j, None] * num[..., 1:]
    return num[..., 1:] / np.prod(roots[..., None] - others, axis=-1)[..., None]


def _weighted_exponents(weights, total):
    """Exponent tuples m with sum_i m_i weights[i] = total, the first
    exponent varying slowest."""
    if not weights:
        return [()] if total == 0 else []
    return [(m,) + rest for m in range(total // weights[0] + 1)
            for rest in _weighted_exponents(weights[1:], total - m * weights[0])]


def _weights(n):
    """The integer weights (2, ..., n + 1) of a_1..a_n, with z of weight 1 and p
    of weight n + 1; t^1..t^n carry them reversed.  Over n + 1: Euler degrees."""
    return tuple(range(2, n + 2))


def reversion_polynomials(n, order=None):
    """Reversion coefficients of ``w**(n+1) = p(z)`` at infinity as
    polynomials in a_1..a_n.

    Entry k-1 is a dict {exponent tuple: coefficient} of monomials in n
    variables giving tt_k, the coefficient of w**(-k) in the inverse
    branch z(w) = w + sum_k tt_k w**(-k).
    Defaults to ``order = n`` terms, which is what the flat chart
    consumes.

    By the Lagrange inversion formula tt_k = -(1/k) [z**-1] p**(k/(n+1))
    (Dubrovin, hep-th/9407018, Lecture 4).  The binomial series of
    p**alpha = z**k (1 + sum_j a_j z**-(j+1))**alpha gives the monomial
    prod_j a_j**m_j, sum_j (j+1) m_j = k+1, the coefficient
    -(1/k) (alpha)_|m| / prod_j m_j!, with (alpha)_r the falling
    factorial.  Each coefficient is summed exactly and rounded once.
    """
    if order is None:
        order = n
    polys = []
    for k in range(1, order + 1):
        alpha = Fraction(k, n + 1)
        terms = {}
        for m in _weighted_exponents(_weights(n), k + 1):
            c = Fraction(-1, k)
            for r in range(sum(m)):
                c *= alpha - r
            for mj in m:
                c /= math.factorial(mj)
            if c:
                terms[m] = float(c)
        polys.append(terms)
    return tuple(polys)

