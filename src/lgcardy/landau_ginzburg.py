"""One-variable polynomial models and their algebras.

For a depressed monic polynomial p of degree n+1 the closed-sector
algebra is C[z]/(p'), carrying the residue functional of 1/p'.  Its
orthogonal idempotents sit at the critical points, with weights
mu_i = 1/p''(alpha_i).  The open extension attaches one quaternion
block of scale rho_i = sqrt(mu_i) to every critical point, together
with the transfer map sending the i-th idempotent to the i-th block
unit.  This produces a bulk-boundary pair that passes every axiom in
:mod:`lgcardy.cardy`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polycore import (
    LGPolynomial,
    ToleranceConfig,
    _lagrange_rows,
    _residues,
    critical_points,
)
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    complex_to_json,
    orthogonal_sum_list,
    quaternion_pair,
    number_pair,
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


def build_closed(n=None, a=None, p=None, tol=None):
    """Construct the closed-sector Frobenius pair of a polynomial model.

    Pass either an LGPolynomial via ``p`` or the degree data ``n`` and
    coefficient tuple ``a``.  The critical points are found once and the
    residue functional on z^0 .. z^(2n-2) is evaluated over them in one
    pass, each value along both residue routes.  The reductions
    z^k mod p' for the same k give the structure tensor.  Raises
    DegenerateModelError when critical points collide or the routes
    disagree.
    """
    tol = tol or ToleranceConfig()
    if p is None:
        p = LGPolynomial(int(n), tuple(a))
    n = p.n
    dp = p.derivative_coeffs()
    roots = critical_points(p, tol=tol)
    values = _residues(np.eye(2 * n - 1, dtype=complex), p, roots, tol)

    # r[k] = z^k mod p': r[k-1] shifted up, its z^n term traded for p'
    r = np.eye(2 * n - 1, n, dtype=complex)
    for k in range(n, 2 * n - 1):
        r[k, 1:] = r[k - 1, :-1]
        r[k] -= (r[k - 1, -1] / dp[n]) * dp[:n]
    mul = r[np.add.outer(np.arange(n), np.arange(n))]
    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    pair = FrobeniusPair(
        FiniteAlgebra(mul, unit, labels=["z^%d" % k for k in range(n)]),
        values[:n],
        name="closed_n%d" % n,
    )

    idem = _lagrange_rows(roots)
    mu = idem @ values[:n]
    diffs = roots[:, None] - roots[None, :] + np.eye(n)
    mu_product = 1.0 / ((n + 1) * np.prod(diffs, axis=1))
    return LGClosedAlgebra(p, pair, roots, idem, mu, mu_product, values)


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


def build_quaternion_model(n=None, a=None, p=None, branch=None, tol=None):
    """Attach quaternion blocks of scale rho_i = sqrt(mu_i) to a model.

    ``branch`` optionally flips the principal square root per critical
    point; entries must be +1 or -1.  The bulk part is the closed
    algebra rewritten in its idempotent basis, so the i-th bulk basis
    vector is the idempotent at the i-th critical point and the
    transfer map sends it to the unit of the i-th block.
    """
    return _quaternion_model(build_closed(n=n, a=a, p=p, tol=tol), branch)


def _quaternion_model(closed, branch):
    """Quaternion model on an already built closed algebra."""
    n = closed.n
    if branch is None:
        branch = (1,) * n
    branch = tuple(int(b) for b in branch)
    if len(branch) != n or any(b not in (-1, 1) for b in branch):
        raise ValueError("branch must give +1 or -1 per critical point")
    rho = np.array([b * np.sqrt(m) for b, m in zip(branch, closed.mu)])

    bulk = orthogonal_sum_list(
        [number_pair(m, name="point%d" % i) for i, m in enumerate(closed.mu)],
        name="bulk_n%d" % n,
    )
    boundary = orthogonal_sum_list(
        [quaternion_pair(r, name="block%d" % i) for i, r in enumerate(rho)],
        name="boundary_n%d" % n,
    )
    phi = np.zeros((4 * n, n), dtype=complex)
    for i in range(n):
        phi[4 * i, i] = 1.0
    cf = CardyFrobeniusAlgebra(bulk, boundary, phi, name="lg_n%d" % n)
    return QuaternionLGModel(closed, rho, branch, cf)


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


def model_from_dict(data, tol=None):
    """Rebuild a model from its JSON payload (recomputed from n, a)."""
    a = [complex(re, im) for re, im in data["a"]]
    return build_quaternion_model(
        n=data["n"], a=a, branch=data.get("branch"), tol=tol
    )
