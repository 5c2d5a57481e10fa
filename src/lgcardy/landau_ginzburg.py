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
their one-polynomial case.  Every critical point, guard and functional
value is read off one table of root powers; the block stacks of the
quaternion models are built once per n (``_quaternion_blocks``),
read-only, and each model keeps its own functionals and phi.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .polycore import (
    LGPolynomial,
    _critical_stack,
    _Failures,
    _lagrange_rows,
    _read_only,
    _residues,
)
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
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
    r[k] = z^k mod p'.  ``mu`` holds the idempotent weights in root
    order, computed from the residue functional; ``mu_product`` is the
    same quantity from the product formula
    1/((n+1) prod_{j!=i} (alpha_i - alpha_j)).

    It is the per-model context: charts, frames and the CLI read the
    roots, weights and functional values from here instead of
    recomputing them.
    """

    p: LGPolynomial
    pair: FrobeniusPair
    roots: np.ndarray
    idempotents: np.ndarray
    mu: np.ndarray
    mu_product: np.ndarray
    functional_values: np.ndarray

    @property
    def n(self):
        return self.p.n


def build_closed(n=None, a=None, p=None):
    """Construct the closed-sector Frobenius pair of a polynomial model.

    Pass either an LGPolynomial via ``p`` or the degree data ``n`` and
    coefficient tuple ``a``.  The critical points are found once and the
    residue functional on z^0 .. z^(2n-2) is evaluated over them in one
    pass, each value along both residue routes; the reductions z^k mod p'
    give the structure tensor.  Raises DegenerateModelError when critical
    points collide or the routes disagree.
    """
    p = LGPolynomial(int(n), tuple(a)) if p is None else p
    failures = _Failures(1)
    data = _critical_data(np.array([p.a]), failures)
    failures.raise_first()
    return _closed_algebra(p, *(x[0] for x in data))


def _closed_algebra(p, r, roots, values, idem, mu):
    """The closed algebra of p from its row of ``_critical_data``."""
    n = p.n
    # the one block is the whole algebra, so there is nothing to check
    cubes = r[None, np.add.outer(np.arange(n), np.arange(n))]
    algebra = FiniteAlgebra._from_stacks([(np.arange(n)[None], cubes)],
                                         np.eye(1, n, dtype=complex)[0],
                                         ["z^%d" % k for k in range(n)])
    pair = FrobeniusPair(algebra, values[:n], name="closed_n%d" % n)
    return LGClosedAlgebra(p, pair, roots, idem, mu, _mu_product(roots), values)


def _mu_product(roots):
    """1/((n+1) prod_{j!=i} (alpha_i - alpha_j)) along the last axis."""
    n = roots.shape[-1]
    diffs = roots[..., :, None] - roots[..., None, :] + np.eye(n)
    return 1.0 / ((n + 1) * np.prod(diffs, axis=-1))


def _critical_data(a, failures):
    """Critical data of a stack of polynomials of one degree n, the row
    a[s] holding the coefficients (a_1, ..., a_n) of the s-th.

    Returns the reductions r[s, k] = z^k mod p' and the residue functional
    on z^k (both routes), k = 0 .. 2n-2, the sorted critical points, the
    Lagrange idempotents and the weights mu = l(idempotent), each with a
    leading (S,) axis.  One table of the powers z^0 .. z^(2n-2) of the
    sorted roots gives the convergence guard, p'' and the partial
    fractions of every functional value.  Every guard of critical_points
    and of the residue routes flags its polynomials in ``failures``; the
    idempotents of a flagged polynomial are left zero.
    """
    count, n = a.shape
    coeffs = np.concatenate([a[:, ::-1], np.zeros((count, 1)), np.ones((count, 1))], axis=1)
    dp = coeffs[:, 1:] * np.arange(1, n + 2)
    roots, table, curv = _critical_stack(dp, failures, 2 * n - 2)
    values = _residues(np.eye(2 * n - 1, dtype=complex), dp, table, curv, failures)
    # r[:, k]: r[:, k-1] shifted up, its z^n term traded for p'
    r = np.zeros((count, 2 * n - 1, n), dtype=complex)
    r[:, :n] = np.eye(n)
    for k in range(n, 2 * n - 1):
        r[:, k, 1:] = r[:, k - 1, :-1]
        r[:, k] -= (r[:, k - 1, -1] / dp[:, n])[:, None] * dp[:, :n]
    # the stacked product rounds differently from one np.convolve per
    # factor: idempotents move by ~1e-15 relative, mu by at most as much
    ok = failures.ok
    idem = np.zeros((count, n, n), dtype=complex)
    idem[ok] = _lagrange_rows(roots[ok])
    mu = (idem @ values[:, :n, None])[..., 0]
    return r, roots, values, idem, mu


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


def build_quaternion_model(n=None, a=None, p=None, branch=None):
    """Attach quaternion blocks of scale rho_i = sqrt(mu_i) to a model.

    ``branch`` optionally flips the principal square root per critical
    point; entries must be +1 or -1.  The bulk part is the closed
    algebra rewritten in its idempotent basis, so the i-th bulk basis
    vector is the idempotent at the i-th critical point and the
    transfer map sends it to the unit of the i-th block.
    """
    return _quaternion_model(build_closed(n=n, a=a, p=p), branch)


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
    branch = (1,) * n if branch is None else tuple(int(b) for b in branch)
    if len(branch) != n or any(b not in (-1, 1) for b in branch):
        raise ValueError("branch must give +1 or -1 per critical point")
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
    n, a = data["n"], np.asarray(data["a"], dtype=object)
    if type(n) is not int or n < 1:  # int() would take 2.5, "2" and True
        raise ValueError("n must be an integer of at least 1, got %r" % (n,))
    if a.shape != (n, 2) or not all(type(x) in (int, float) for x in a.flat):
        raise ValueError("a must be a list of n = %d [re, im] pairs of numbers" % n)
    return build_quaternion_model(n=n, a=json_to_complex(a.astype(float)).tolist(),
                                  branch=data.get("branch"))
