"""One-variable polynomial models and their algebras.

For a depressed monic polynomial p of degree n+1 the closed-sector
algebra is C[z]/(p'), carrying the residue functional of 1/p'.  Its
orthogonal idempotents sit at the critical points, with weights
mu_i = 1/p''(alpha_i).  The open extension attaches one quaternion
block of scale rho_i = sqrt(mu_i) to every critical point, together
with the transfer map sending the i-th idempotent to the i-th block
unit.  This produces a bulk-boundary pair that passes every axiom in
:mod:`lgcardy.cardy`.

The critical data and the quaternion models are built for a stack of
polynomials of one degree at once (``_critical_data``,
``_quaternion_cf``); ``build_closed`` and ``build_quaternion_model`` are
their one-polynomial case.  The critical data comes in two stages.  The
root-free stage (``_closed_data``) reads the functional values off the
Laurent inverse of p' and the reductions off p', and cross-checks the
one by the other; the closed algebra and its flat chart need nothing
more.  The roots stage (``_critical_roots``,
``_idempotents``) finds the critical points, cross-checks the values by
partial fractions over them and forms the idempotents and weights, only
where they are read.  The block stacks of the quaternion models are
built once per n (``_quaternion_blocks``), read-only, and each model
keeps its own functionals and phi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .polycore import (
    LGPolynomial,
    _critical_stack,
    _cross_check,
    _degenerate,
    _hankel_index,
    _Failures,
    _lagrange_rows,
    _laurent_values,
    _partial_fractions,
    _read_only,
)
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    _json_int,
    _quaternion_table,
    complex_to_json,
    json_to_complex,
)
from .cardy import CardyFrobeniusAlgebra, cf_to_dict, pair_to_dict

__all__ = [
    "LGClosedAlgebra",
    "QuaternionLGModel",
    "build_closed",
    "build_quaternion_model",
    "model_to_dict",
    "model_from_dict",
]


@dataclass
class LGClosedAlgebra:
    """Closed sector of a polynomial model in the monomial basis.

    ``functional_values[k]`` is the residue functional on z^k for
    k = 0 .. 2n-2, enough to pair any two basis monomials: the pairing
    is the Hankel matrix H[a, b] = functional_values[a + b].  The
    product is the gather z^i z^j = r[i + j] of the 2n-1 reductions
    r[k] = z^k mod p'.  Both are read off p' alone, at every a.

    The critical data is computed on first read and kept: the sorted
    ``roots`` (colliding ones raise DegenerateModelError there), the
    Lagrange ``idempotents`` and ``mu``, their weights l(e_i) in root
    order, and ``mu_product``, the same from the product formula
    1/((n+1) prod_{j!=i} (alpha_i - alpha_j)).  It is the per-model
    context: frames and the CLI read these from here instead of
    recomputing them, and a chart reads none of them.
    """

    p: LGPolynomial
    pair: FrobeniusPair
    functional_values: np.ndarray

    @property
    def n(self):
        return self.p.n

    @functools.cached_property
    def roots(self):
        failures = _Failures(1)
        dp = _derivatives(np.array([self.p.a]))
        roots = _critical_roots(dp, self.functional_values[None], failures)
        failures.raise_first()
        return roots[0]

    @functools.cached_property
    def idempotents(self):
        return _lagrange_rows(self.roots[None])[0]

    @functools.cached_property
    def mu(self):
        return _idempotent_weights(self.idempotents[None], self.functional_values[None])[0]

    @functools.cached_property
    def mu_product(self):
        return _mu_product(self.roots)


def build_closed(n, a):
    """Construct the closed-sector Frobenius pair of the polynomial model
    z^(n+1) + a_1 z^(n-1) + ... + a_n (``LGPolynomial(n, a)``) from the
    root-free stage ``_closed_data``; no critical point is found until one
    is read.  Raises DegenerateModelError when the residue routes disagree.
    """
    p = LGPolynomial(n, a)
    failures = _Failures(1)
    _, r, values = _closed_data(np.array([p.a]), failures)
    failures.raise_first()
    return _closed_algebra(p, r[0], values[0])


def _closed_algebra(p, r, values):
    """The closed algebra of p from its row of ``_closed_data``."""
    n = p.n
    # the one block is the whole algebra, so there is nothing to check
    cubes = r[None, _hankel_index(n)]
    algebra = FiniteAlgebra._from_stacks([(np.arange(n)[None], cubes)],
                                         np.eye(1, n, dtype=complex)[0],
                                         ["z^%d" % k for k in range(n)])
    pair = FrobeniusPair(algebra, values[:n], name="closed_n%d" % n)
    return LGClosedAlgebra(p, pair, values)


def _mu_product(roots):
    """1/((n+1) prod_{j!=i} (alpha_i - alpha_j)) along the last axis."""
    n = roots.shape[-1]
    diffs = roots[..., :, None] - roots[..., None, :] + np.eye(n)
    return 1.0 / ((n + 1) * np.prod(diffs, axis=-1))


def _derivatives(a):
    """The ascending coefficients of p' (leading coefficient n + 1) for each
    row a[s] = (a_1, ..., a_n) of a stack of polynomials of one degree n."""
    count, n = a.shape
    dp = np.zeros((count, n + 1), dtype=complex)
    dp[:, :n - 1] = a[:, :n - 1][:, ::-1] * np.arange(1, n)  # k a_(n-k) on z^(k-1)
    dp[:, n] = n + 1.0
    return dp


def _closed_data(a, failures):
    """The root-free stage for a stack of polynomials of one degree n, the row
    a[s] holding (a_1, ..., a_n): p' (``_derivatives``), the reductions
    r[s, k] = z^k mod p' and the residue functional on z^k, k = 0 .. 2n-2,
    read off the Laurent inverse of p'.  The reductions read the functional
    a second way, l(z^k) = [z^(n-1)] r[k] / (n + 1), and the two must agree.
    Non-finite coefficients and a disagreement flag their rows in
    ``failures``; a row gets the same bits alone and in a stack."""
    count, n = a.shape
    failures.flag(~np.isfinite(a).all(axis=1), _degenerate("non-finite coefficients"))
    dp = _derivatives(a)
    values = _laurent_values(dp, 2 * n - 1)
    # r[:, k]: r[:, k-1] shifted up, its z^n term traded for p'
    r = np.zeros((count, 2 * n - 1, n), dtype=complex)
    r[:, :n] = np.eye(n)
    lead, low = dp[:, n:], dp[:, :n]
    for k in range(n, 2 * n - 1):
        r[:, k, 1:] = r[:, k - 1, :-1]
        r[:, k] -= r[:, k - 1, -1:] / lead * low
    _cross_check(values, r[..., n - 1] / lead, "the reductions", failures)
    return dp, r, values


def _critical_roots(dp, values, failures):
    """The roots stage, layered on ``_closed_data``: the sorted critical
    points (S, n) of each row of p' (``_critical_stack``), over which the
    partial fractions cross-check the ``values``; guards flag ``failures``."""
    roots, table, curv = _critical_stack(dp, failures, values.shape[1] - 1)
    _partial_fractions(values, table, curv, failures)
    return roots


def _idempotents(roots, values, ok):
    """The Lagrange idempotents at the ``roots`` (S, n) and their weights
    mu = l(idempotent) under the functional ``values``; the idempotents of a
    row not ``ok`` are left zero."""
    count, n = roots.shape
    idem = np.zeros((count, n, n), dtype=complex)
    idem[ok] = _lagrange_rows(roots[ok])
    return idem, _idempotent_weights(idem, values)


def _idempotent_weights(idem, values):
    """mu = l(idempotent) for a stack of idempotents (S, n, n) under the
    functional ``values`` (S, width)."""
    return (idem @ values[:, :idem.shape[-1], None])[..., 0]


def _critical_data(a, failures):
    """Both stages for a stack of polynomials of one degree: (r, roots,
    values), each with a leading (S,) axis; ``_idempotents`` adds the
    weights where they are read."""
    dp, r, values = _closed_data(a, failures)
    return r, _critical_roots(dp, values, failures), values


@dataclass
class QuaternionLGModel:
    """Closed sector plus one quaternion block per critical point."""

    closed: LGClosedAlgebra
    rho: np.ndarray
    branch: tuple
    cf: CardyFrobeniusAlgebra

    @property
    def n(self):
        return self.closed.n

    @property
    def p(self):
        return self.closed.p


def build_quaternion_model(n, a, branch=None):
    """Attach quaternion blocks of scale rho_i = sqrt(mu_i) to a model.

    ``branch`` optionally flips the principal square root per critical
    point; entries must be +1 or -1.  The bulk part is the closed
    algebra rewritten in its idempotent basis, so the i-th bulk basis
    vector is the idempotent at the i-th critical point and the
    transfer map sends it to the unit of the i-th block.
    """
    return _quaternion_model(build_closed(n, a), branch)


def _quaternion_model(closed, branch):
    """Quaternion model on an already built closed algebra."""
    failures = _Failures(1)
    branch, rho, cf = _quaternion_cf(closed.mu, branch, failures)
    failures.raise_first()
    return QuaternionLGModel(closed, rho, branch, cf)


def _quaternion_cf(mu, branch, failures):
    """Quaternion models of the weight rows ``mu``, (n,) for one model or
    (S, n) for a stack, all with the one ``branch``: returns (branch, rho,
    cf), rho shaped as mu and cf one Cardy pair or a stack of them.

    The bulk is n one-dimensional blocks, the boundary n quaternion
    blocks, each one stack of cubes shared by every model of degree n
    (``_quaternion_blocks``); only the functionals, mu and 2 rho on the
    block units, carry the (S,) axis.  A zero weight (a degenerate
    functional) is flagged in ``failures``.
    """
    n = mu.shape[-1]
    branch = (1,) * n if branch is None else tuple(branch)
    if len(branch) != n or any(b not in (-1, 1) for b in branch):  # int() first would take 1.5
        raise ValueError("branch must give +1 or -1 per critical point")
    branch = tuple(int(b) for b in branch)
    failures.flag(np.any(mu == 0, axis=-1), lambda s: ValueError("degenerate functional"))
    rho = np.array(branch) * np.sqrt(mu)
    stack_a, unit_a, stack_b, unit_b = _quaternion_blocks(n)
    bulk = FiniteAlgebra._from_stacks([stack_a], unit_a, ["1"] * n)
    boundary = FiniteAlgebra._from_stacks([stack_b], unit_b, ["1", "I", "J", "K"] * n)
    lb = np.zeros(mu.shape[:-1] + (4 * n,), dtype=complex)
    lb[..., ::4] = 2.0 * rho
    phi = np.zeros((4 * n, n), dtype=complex)
    phi[4 * np.arange(n), np.arange(n)] = 1.0
    cf = CardyFrobeniusAlgebra(
        FrobeniusPair(bulk, np.array(mu, dtype=complex), name="bulk_n%d" % n),
        FrobeniusPair(boundary, lb, name="boundary_n%d" % n),
        phi, name="lg_n%d" % n)
    return branch, rho, cf


@functools.lru_cache(maxsize=None)
def _quaternion_blocks(n):
    """The (index, cubes) stack and the unit of the bulk, n one-dimensional
    blocks, then of the boundary, n quaternion blocks, of the degree-n
    models.  Cached per n; the arrays are read-only, so an edit in place
    raises instead of reaching every model."""
    points = np.arange(n)[:, None]
    stack_a = (points, np.ones((n, 1, 1, 1), dtype=complex))
    stack_b = (4 * points + np.arange(4), np.repeat(_quaternion_table()[None], n, axis=0))
    units = (np.ones(n, dtype=complex), np.tile(np.eye(1, 4, dtype=complex)[0], n))
    return _read_only((stack_a, units[0], stack_b, units[1]))


def model_to_dict(model):
    """JSON payload with coefficients, critical data and both algebras."""
    closed = model.closed
    return {
        "n": closed.n,
        "a": complex_to_json(np.asarray(closed.p.a, dtype=complex)),
        "roots": complex_to_json(closed.roots),
        "mu": complex_to_json(closed.mu),
        "rho": complex_to_json(model.rho),
        "branch": list(model.branch),
        "closed": pair_to_dict(closed.pair),
        "cf": cf_to_dict(model.cf),
    }


def model_from_dict(data):
    """Rebuild a model from its JSON payload (recomputed from n, a); a field
    of the wrong type or shape raises ValueError naming it."""
    n = _json_int(data["n"], "n", 1)
    a, branch = np.asarray(data["a"], dtype=object), data.get("branch")
    if a.shape != (n, 2) or not all(type(x) in (int, float) for x in a.flat):
        raise ValueError("a must be a list of n = %d [re, im] pairs of numbers" % n)
    if branch is not None and not (type(branch) is list and len(branch) == n and all(
            type(b) is int and b in (-1, 1) for b in branch)):  # int() would take 1.7, "1", True
        raise ValueError("branch must be a list of n = %d entries, each 1 or -1, got %r"
                         % (n, branch))
    return build_quaternion_model(n, json_to_complex(a.astype(float)).tolist(), branch)
