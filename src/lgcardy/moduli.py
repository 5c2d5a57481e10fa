"""Charts and potentials on the space of polynomial models.

The coefficient tuple a = (a_1, ..., a_n) of a depressed monic
polynomial is a base point; this module builds a distinguished
coordinate system on that space and the objects living in it:

* flat coordinates t^1, ..., t^n read from the reversion coefficients
  of w^{n+1} = p(z) at infinity, in which the pairing is the constant
  antidiagonal identity;
* the Euler field, which rescales each coordinate by a fixed charge;
* the structure tensor c_ijk and a potential F with dF^3 = c, fitted on
  the monomials of charge 2n + 4 and checked for associativity,
  normalization and quasi-homogeneity, its monomials (as the reversion
  table's) read through one calculus: ``_monomials``, ``_taylor_factors``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product

import numpy as np

from .polycore import (
    EQ_TOL,
    DegenerateModelError,
    LGPolynomial,
    _Failures,
    _degenerate,
    _read_only,
    _weighted_exponents,
    _weights,
    reversion_polynomials,
)
from .frobenius import VerificationReport, _worst, complex_to_json, json_to_complex
from .landau_ginzburg import (
    LGClosedAlgebra,
    _closed_algebra,
    _critical_data,
    _mu_product,
    build_closed,
)

__all__ = [
    "FlatChart",
    "PotentialPoly",
    "flat_chart",
    "euler_check",
    "structure_tensor",
    "coefficients_from_flat",
    "sample_charts",
    "reconstruct_potential",
    "wdvv_check",
    "potential_to_dict",
    "potential_from_dict",
]

FLAT_NEWTON_STEPS = 60  # of the flat coordinate inversion, before a row is refused


def _monomials(points, exponents):
    """x^e at ``points`` (..., n) for each row e of ``exponents`` (M, n), as
    (..., M), gathered from one table of the powers of each coordinate."""
    x = np.asarray(points, dtype=complex)
    powers = x[..., :, None] ** np.arange(exponents.max(initial=0) + 1)
    return np.prod(powers[..., np.arange(x.shape[-1]), exponents], axis=-1)


def _taylor_factors(e, k):
    """d^k x^e = e!/(e - k)! x^(e - k) for the exponents e (M, n) and the
    orders k (Q, n), integer arrays: the exact integer factors e!/(e - k)!
    that are not zero, their pairs (m, q) and the lowered exponents e - k."""
    factors = np.ones((len(e), len(k)), dtype=int)
    for s in range(k.max(initial=0)):
        factors *= np.prod(np.where(k > s, e[:, None, :] - s, 1), axis=2)
    m, q = np.nonzero(factors)
    return factors[m, q], (m, q), e[m] - k[q]


@functools.lru_cache(maxsize=None)
def _reversion_table(n):
    """The n reversion polynomials of order n and their n^2 first derivatives
    as one linear map on monomials, read-only, formed once per n: ``exponents[m]``
    is the m-th monomial of a_1..a_n and ``coeffs[m, j]`` its coefficient in the
    j-th polynomial, t~^(j+1) for j < n, d t~^(i+1) / d a_(k+1) for j = n + n i + k."""
    polys = reversion_polynomials(n)
    e = np.array(sorted({x for q in polys for x in q}), dtype=int).reshape(-1, n)
    c = np.array([[q.get(x, 0.0) for q in polys] for x in map(tuple, e.tolist())])
    factors, (m, k), lowered = _taylor_factors(e, np.eye(n, dtype=int))
    both = list(map(tuple, np.concatenate([e, lowered]).tolist()))
    row = {x: i for i, x in enumerate(sorted(set(both)))}
    rows = np.array([row[x] for x in both])
    coeffs = np.zeros((len(row), n + n * n), dtype=complex)
    coeffs[rows[:len(e)], :n] = c
    coeffs[rows[len(e):, None], n + n * np.arange(n) + k[:, None]] = factors[:, None] * c[m]
    return _read_only((np.array(list(row), dtype=int).reshape(-1, n), coeffs))


def _flat_mixing_matrix(n):
    """Matrix L with t = L tt, tt the raw inversion coefficients.

    Row i (0-based, coordinate t^{i+1}) picks the inversion coefficient
    that makes the pairing the antidiagonal identity: t^1 = -(n+1) tt^n,
    t^n = -tt^1, and t^i = -sqrt(n+1) tt^{n+1-i} in between.  For n = 1
    the single coordinate is -sqrt(2) tt^1.
    """
    L = np.zeros((n, n))
    if n == 1:
        L[0, 0] = -np.sqrt(2.0)
        return L
    L[0, n - 1] = -(n + 1.0)
    L[n - 1, 0] = -1.0
    for i in range(2, n):
        L[i - 1, n - i] = -np.sqrt(n + 1.0)
    return L


@dataclass
class FlatChart:
    """Flat coordinates at a base point, labelled t^1..t^n with the unit
    direction t^1 first.

    ``closed`` is the closed algebra the chart was built on, ``ttilde``
    the raw inversion coefficients and ``jacobian`` dt~/da, [i, k] along
    a_(k+1).  ``tangents[k]`` holds the ascending coefficients (length n)
    of dp/dt^{k+1}; ``metric_residual`` compares their residue pairing
    with the constant antidiagonal identity.
    """

    closed: LGClosedAlgebra
    ttilde: np.ndarray
    t: np.ndarray
    tangents: np.ndarray
    jacobian: np.ndarray
    metric_residual: float

    @property
    def p(self):
        return self.closed.p

    @property
    def n(self):
        return self.closed.n


def _reversion_values(n, a):
    """The raw inversion coefficients t~ and their jacobian dt~/da at a,
    or at each row of a stack of points a (S, n): the monomials of a times
    ``_reversion_table``.  Entry [i, k] of the jacobian differentiates
    t~^(i+1) along a_(k+1)."""
    exponents, coeffs = _reversion_table(n)
    values = _monomials(a, exponents) @ coeffs
    return values[..., :n], values[..., n:].reshape(values.shape[:-1] + (n, n))


def flat_chart(p=None, n=None, a=None):
    """Flat coordinates, their tangent polynomials and metric residual,
    in the one labelling of ``FlatChart`` (the unit direction first)."""
    return _chart_on(build_closed(n=n, a=a, p=p))


def _chart_on(closed):
    """The flat chart at the polynomial of an already built closed algebra."""
    return _charts(closed.n, [closed], np.array([closed.p.a]), closed.functional_values[None])[0]


def _charts(n, closeds, a, values):
    """The FlatCharts of ``_chart_stack``, one per closed algebra."""
    rows = zip(*_chart_stack(n, a, values))
    return [FlatChart(closed, ttilde, t, tangents, jacobian, float(metric))
            for closed, (ttilde, t, tangents, jacobian, metric) in zip(closeds, rows)]


def _chart_stack(n, a, values):
    """t~, t, the tangents, dt~/da and the metric residual at each row of
    a (S, n), ``values`` (S, 2n-1) the closed functional values there.

    t~ is read from the cached reversion polynomials, and the metric is
    T H T^T, H[a, b] = l(z^(a+b)) the Hankel matrix of the closed
    functional values: the pairing of tangents needs no reduction mod p'.
    """
    ttilde, jac_tta = _reversion_values(n, a)  # t~ and dt~/da
    L = _flat_mixing_matrix(n)
    t = ttilde @ L.T
    jac_at = np.linalg.inv(L @ jac_tta)

    # dp/dt^k = sum_j (da_j/dt^k) z^{n-j}
    tangents = jac_at.swapaxes(1, 2)[..., ::-1]
    hankel = values[:, np.add.outer(np.arange(n), np.arange(n))]
    g = tangents @ hankel @ tangents.swapaxes(1, 2)
    metric = _worst([g - np.fliplr(np.eye(n))], axis=(1, 2))
    return ttilde, t, tangents, jac_tta, metric


def _ansatz(n):
    """The exponents (M, n) of charge 2n + 4 under the weights of t^1..t^n."""
    return np.array(_weighted_exponents(_weights(n)[::-1], 2 * n + 4))


def _recentring(e, low, high):
    """The orders k of degree ``low`` to ``high`` of F(t + c), F on the exponents
    e (M, n), as the picks k <= e first meet them; then the binomials C(e, k),
    pairs and exponents e - k of its terms f_e C(e, k) c^(e - k) t^k."""
    picks = (k for row in e.tolist() for k in product(*[range(x + 1) for x in row]))
    orders = np.array(list(dict.fromkeys(k for k in picks if low <= sum(k) <= high)),
                      dtype=int).reshape(-1, e.shape[1])
    factors, (m, q), lowered = _taylor_factors(e, orders)
    k_factorials = np.cumprod(np.maximum(np.arange(e.max(initial=0) + 1), 1))[orders].prod(axis=1)
    return orders, (factors // k_factorials[q], (m, q), lowered)


def euler_check(chart):
    """Residuals of the grading identities at the base point of a chart.

    ``p_identity``: the rescaling of p by the grading field equals
    p - (z/(n+1)) p', coefficient by coefficient.  ``flat_scaling``:
    applying the field to each flat coordinate function of a returns
    d_i times its value.  ``raw_scaling``: the same for the raw
    inversion coefficients, through the chart's ``jacobian``.
    """
    p = chart.p
    n = p.n
    avals = np.asarray(p.a, dtype=complex)
    # E p: a_k and the raw coefficient t~^k carry the charge (k+1)/(n+1)
    charges = np.array(_weights(n)) / (n + 1.0)
    e_vec = charges * avals
    rhs = p.coeffs()
    rhs[1:] -= p.derivative_coeffs() / (n + 1.0)
    rhs[:n] -= e_vec[::-1]
    p_identity = _worst([rhs])

    # E t^i = d_i t^i through the chain rule in the a variables; entry
    # [k, n-1-j] of the tangents is da_(j+1)/dt^(k+1)
    jac_ta = np.linalg.inv(chart.tangents[:, ::-1].T)
    lhs = jac_ta @ e_vec
    flat_scaling = _worst([lhs - charges[::-1] * chart.t])
    raw_scaling = _worst([chart.jacobian @ e_vec - charges * chart.ttilde])
    return {
        "p_identity": p_identity,
        "flat_scaling": flat_scaling,
        "raw_scaling": raw_scaling,
    }


def structure_tensor(chart):
    """c_ijk = residue pairing of three flat tangent directions (see
    ``_structure_stack``), every entry read from its sorted index, so that
    c is exactly totally symmetric."""
    pair = chart.closed.pair
    (_, mul), = pair.algebra.cubes()  # the closed algebra is one block
    c = _structure_stack(chart.tangents[None], mul[None], pair.functional[None])[0]
    return c[_sorted_triples(chart.n)[1]]


def _structure_stack(tangents, mul, functional):
    """structure_tensor at the sorted triples, as [chart, triple], from the
    ``tangents`` (S, n, n), closed products (S, n, n, n) and functionals
    (S, n) of a stack of charts.  The products T_i T_j are formed in the
    algebra first and then paired with T_k, as in l((T_i T_j) T_k)."""
    count, n = tangents.shape[:2]
    # products[s, i, j] holds the coordinates of T_i T_j
    products = tangents[:, None] @ (tangents @ mul.reshape(count, n, n * n)).reshape(mul.shape)
    gram = (mul @ functional[:, None, :, None])[..., 0]
    c = products @ (tangents @ gram).swapaxes(1, 2)[:, None]
    return c[(slice(None),) + tuple(_sorted_triples(n)[0].T)]


def coefficients_from_flat(n, t_target, a0=None):
    """Invert the flat coordinate map by Newton iteration."""
    failures = _Failures(1)
    a = _invert_flat(n, np.asarray(t_target, dtype=complex)[None], a0, failures)
    failures.raise_first()
    return a[0]


def _invert_flat(n, targets, a0, failures):
    """coefficients_from_flat for each row of ``targets`` (S, n), every row
    starting from ``a0`` (default 0).  A row runs its own Newton iterates
    until its residual falls below 1e-13 max(1, |t|) and is then left
    alone; a row still moving after FLAT_NEWTON_STEPS steps is flagged in
    ``failures``."""
    L = _flat_mixing_matrix(n)
    a = np.zeros(targets.shape, dtype=complex)
    a[:] = 0.0 if a0 is None else np.asarray(a0, dtype=complex)
    bound = 1e-13 * np.maximum(1.0, np.max(np.abs(targets), axis=1))
    moving = np.arange(len(targets))
    for _ in range(FLAT_NEWTON_STEPS):
        ttilde, jac = _reversion_values(n, a[moving])
        res = targets[moving] - (L @ ttilde[..., None])[..., 0]
        going = ~(np.max(np.abs(res), axis=1) < bound[moving])
        moving, res, jac = moving[going], res[going], jac[going]
        if not len(moving):
            return a
        a[moving] += np.linalg.solve(L @ jac, res[..., None])[..., 0]
    failures.flag(np.isin(np.arange(len(targets)), moving),
                  _degenerate("flat coordinate inversion did not converge"))
    return a


def sample_charts(n, count, seed=42, scale=0.8):
    """Random admissible base points with their flat charts.

    Rejects coefficient draws whose critical points collide or whose
    weights leave the window [1e-3, 1e3], so downstream linear algebra
    stays well conditioned.  The draws are made, judged and charted as
    one stack, which draws the same numbers and keeps the same charts as
    one draw at a time; each chart is then given its closed algebra.
    """
    a, *data = _sample_stack(n, count, seed, scale)
    closeds = [_closed_algebra(LGPolynomial(n, tuple(a[s])), *(x[s] for x in data))
               for s in range(len(a))]
    return _charts(n, closeds, a, data[2])


def _sample_stack(n, count, seed, scale):
    """The coefficients of the first ``count`` admissible draws and their
    rows of ``_critical_data``, each with a leading (count,) axis.  The
    draws still missing are made and judged as one batch at a time."""
    rng = np.random.default_rng(seed)
    batches, found, draws = [], 0, 0
    while found < count or not batches:
        k = min(count - found, 200 * count - draws)
        if found < count and k <= 0:
            raise DegenerateModelError("sampling kept hitting degenerate models")
        draws += k
        z = rng.normal(size=(k, 2, n))
        a = scale * (z[:, 0] + 1j * z[:, 1])
        failures = _Failures(k)
        data = (a,) + _critical_data(a, failures)
        ok = np.flatnonzero(failures.ok)
        mu = np.abs(_mu_product(data[2][ok]))
        keep = ok[(mu.min(axis=1) >= 1e-3) & (mu.max(axis=1) <= 1e3)]
        batches.append([x[keep] for x in data])
        found += len(keep)
    return [np.concatenate(x) for x in zip(*batches)]


@functools.lru_cache(maxsize=None)
def _sorted_triples(n):
    """The triples i <= j <= k in lexicographic order, (T, 3), and the
    (n, n, n) array of the position there of every sorted (i, j, k), read-only."""
    i, j, k = np.indices((n, n, n))
    is_sorted = (i <= j) & (j <= k)
    rank = np.cumsum(is_sorted).reshape(n, n, n) - 1
    low = np.minimum(np.minimum(i, j), k)
    high = np.maximum(np.maximum(i, j), k)
    return _read_only((np.argwhere(is_sorted), rank[low, i + j + k - low - high, high]))


def _third_derivative_basis(exponents, points):
    """d_i d_j d_k t^e for each exponent tuple e at each point and each
    sorted triple of ``_sorted_triples``, as [point, monomial, triple]: the
    ``_taylor_factors`` term of e at the order that counts each coordinate."""
    count, n = np.shape(points)
    e = np.asarray(exponents, dtype=int).reshape(len(exponents), n)
    # hits[q, l]: how often coordinate l occurs in the q-th triple
    hits = (_sorted_triples(n)[0][:, :, None] == np.arange(n)).sum(axis=1)
    factors, (m, q), lowered = _taylor_factors(e, hits)
    out = np.zeros((count, len(e), len(hits)), dtype=complex)
    out[:, m, q] = factors * _monomials(points, lowered)
    return out


@dataclass
class PotentialPoly:
    """Polynomial potential in the flat coordinates of ``FlatChart``.

    ``terms`` maps exponent tuples, the unit direction t^1 first, to
    coefficients.  The weights of ``polycore._weights`` make quasi-homogeneity
    a statement about each monomial separately: its charge is 2n + 4.
    """

    n: int
    terms: dict

    def _third_derivatives_at(self, points):
        """Third derivative tensors at each point, as [point, i, j, k],
        gathered from the sorted triples; each sum runs in sorted exponent order."""
        points = np.asarray(points, dtype=complex).reshape(-1, self.n)
        exponents = sorted(self.terms)
        basis = _third_derivative_basis(exponents, points)
        coeffs = np.array([self.terms[e] for e in exponents], dtype=complex)
        return np.sum(coeffs[:, None] * basis, axis=1)[:, _sorted_triples(self.n)[1]]

    def quasi_homogeneity_residual(self):
        """Worst |coefficient| |charge - (2n + 4)| / (n + 1) over cubic-and-higher
        monomials, exactly 0 on the ansatz; a NaN coefficient makes it NaN."""
        n, weights = self.n, _weights(self.n)[::-1]
        return _worst([np.array([abs(coeff) * abs(np.dot(weights, exps) - 2 * n - 4) / (n + 1)
                                 for exps, coeff in self.terms.items() if sum(exps) > 2])])


class UnderdeterminedFitError(ValueError):
    """The sampled structure tensors leave the potential undetermined."""


def reconstruct_potential(n, sample_count=60, seed=42):
    """Fit the potential whose third derivatives are the structure tensor.

    The ansatz is ``_ansatz(n)``.  The draws of ``sample_charts`` are
    charted and their structure tensors contracted as one stack, which
    feeds the design matrix.  Returns (potential, fit_residual) where the residual is the
    worst defect of the fitted third derivatives against the sampled
    tensor entries.  Raises UnderdeterminedFitError when the design
    matrix has lower rank than the ansatz has monomials.
    """
    exponents = _ansatz(n)
    a, r, _, values, _, _ = _sample_stack(n, sample_count, seed, 0.8)
    _, t, tangents, _, _ = _chart_stack(n, a, values)
    mul = r[:, np.add.outer(np.arange(n), np.arange(n))]
    # one row per chart and sorted triple i <= j <= k, chart-major
    design = _third_derivative_basis(exponents, t).transpose(0, 2, 1).reshape(-1, len(exponents))
    rhs = _structure_stack(tangents, mul, values[:, :n]).reshape(-1)
    beta, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < len(exponents):
        raise UnderdeterminedFitError(
            "underdetermined fit: rank %d of %d monomials at n=%d from %d sample charts;"
            " more samples are needed" % (rank, len(exponents), n, sample_count))
    fit_residual = _worst([design @ beta - rhs])
    terms = {exps: complex(b) for exps, b in zip(map(tuple, exponents.tolist()), beta)}
    return PotentialPoly(n, terms), fit_residual


@functools.lru_cache(maxsize=None)
def _cached_potential(n):
    """reconstruct_potential once per n."""
    return reconstruct_potential(n)[0]


def wdvv_check(potential, points, tol=EQ_TOL):
    """Associativity, normalization and quasi-homogeneity residuals.

    ``points`` is an iterable of flat coordinate vectors.  The
    associativity residual contracts two third-derivative tensors with
    the constant inverse metric, the antidiagonal identity, which only
    reverses an index (left[p, ij, kl] is one matrix product per point),
    and compares the exchange of the two outer slots.  The normalization
    residual compares the third derivatives along the unit direction, the
    first coordinate, with the metric.  The quasi-homogeneity residual is
    per-monomial and point independent.
    """
    n = potential.n
    flip = np.fliplr(np.eye(n))
    d3 = potential._third_derivatives_at(list(points))
    pairs = d3.reshape(-1, n * n, n)
    left = (pairs[..., ::-1] @ pairs.transpose(0, 2, 1)).reshape(-1, n, n, n, n)
    rep = VerificationReport(subject="wdvv_n%d" % n, tol=tol)
    rep.residuals["associativity"] = _worst([left - left.transpose(0, 3, 2, 1, 4)])
    rep.residuals["normalization"] = _worst([d3[..., 0] - flip])
    rep.residuals["quasi_homogeneity"] = potential.quasi_homogeneity_residual()
    return rep


def potential_to_dict(potential):
    return {
        "n": potential.n,
        "index_reversal": False,
        "monomials": [
            {"exponents": list(exps), "coeff": complex_to_json(coeff)}
            for exps, coeff in sorted(potential.terms.items())
        ],
    }


def potential_from_dict(data):
    """The potential of a ``potential_to_dict`` payload.  A payload marked
    ``"index_reversal": true`` (as ``lgcardy potential --index-reversal``
    writes it) has its exponent tuples read back into the natural labels."""
    step = -1 if data.get("index_reversal", False) else 1
    return PotentialPoly(int(data["n"]), {tuple(row["exponents"][::step]):
                                          complex(json_to_complex(row["coeff"]))
                                          for row in data["monomials"]})
