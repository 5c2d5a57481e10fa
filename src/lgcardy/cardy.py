"""Bulk-boundary pairs of Frobenius algebras.

A Cardy pair couples a commutative Frobenius pair A (the bulk) to a
second pair B (the boundary, not necessarily commutative) through a
linear map phi from A to B.  The axioms verified here: phi is a unital
algebra map, its image lies in the center of B, and the transfer
identity holds: the A-pairing of phi-star images equals the trace of
the two-sided multiplication operator b -> x b y on B.  The transfer
identity is checked twice, once as a literal operator trace and once
through the dual-basis coordinate identity, and the two routes have to
agree.

The module also splits a commutative semisimple pair into its
one dimensional blocks by diagonalising multiplication by a random
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycore import ToleranceConfig
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    complex_to_json,
    json_to_complex,
    matrix_pair,
    nondegeneracy_margin,
    number_pair,
    orthogonal_sum,
    pair_from_dict,
    pair_to_dict,
    quaternion_pair,
)

__all__ = [
    "CardyFrobeniusAlgebra",
    "phi_star",
    "cardy_residual_trace",
    "cardy_residual_coordinates",
    "verify_cardy_frobenius",
    "orthogonal_sum_cf",
    "decompose_commutative",
    "quaternionic_cf",
    "matrix_cf",
    "cf_to_dict",
    "cf_from_dict",
]


@dataclass
class CardyFrobeniusAlgebra:
    """Bulk pair, boundary pair, and transfer map phi.

    ``phi`` has shape (dim B, dim A); column i holds the coordinates of
    the image of the i-th bulk basis vector.  The boundary part may have
    dimension zero, in which case every boundary axiom is vacuous.
    """

    a: FrobeniusPair
    b: FrobeniusPair
    phi: np.ndarray
    name: str = "cf"

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=complex).reshape(
            self.b.algebra.dim, self.a.algebra.dim
        )


def phi_star(cf, tol=None):
    """Adjoint of phi with respect to the two bilinear forms.

    Returns the (dim A, dim B) matrix X with (a, X b)_A = (phi a, b)_B.
    Raises ValueError("degenerate A-form") when the bulk Gram matrix is
    too close to singular to invert.
    """
    tol = tol or ToleranceConfig()
    ga = cf.a.gram()
    if nondegeneracy_margin(ga) <= tol.eq_tol:
        raise ValueError("degenerate A-form")
    return np.linalg.solve(ga, cf.phi.T @ cf.b.gram())


def _triple_traces(cf):
    """tr of b -> f_k b f_l for all boundary basis pairs (k, l)."""
    mul = cf.b.algebra.mul
    return np.einsum("kmi,ilm->kl", mul, mul)


def cardy_residual_trace(cf, tol=None):
    """Worst defect of (phi* f_k, phi* f_l)_A = tr(b -> f_k b f_l)."""
    if cf.b.algebra.dim == 0:
        return 0.0
    ps = phi_star(cf, tol=tol)
    lhs = ps.T @ cf.a.gram() @ ps
    return float(np.max(np.abs(lhs - _triple_traces(cf))))


def cardy_residual_coordinates(cf, tol=None):
    """Worst defect of the dual-basis form of the transfer identity.

    For every boundary pair (x, y) = (f_k, f_l) it compares
    sum_ij (G_A^-1)[i,j] l_B(phi(a_i) x) l_B(phi(a_j) y) against
    sum_sr (G_B^-1)[r,s] l_B(x f_s y f_r).

    With m = dim B, the right side is contracted in O(m^4) time and
    O(m^3) memory: first lm[d, r] = l_B(f_d f_r) = mul[d, r, :] . l_B and
    x = lm G_B^-1, then y[c, l, s] = sum_d mul[c, l, d] x[d, s], and
    finally rhs[k, l] = sum_sc mul[k, s, c] y[c, l, s].  The product
    lm G_B^-1 is formed numerically, not cancelled to the identity, so
    the route still sees the boundary functional and both Gram factors.
    The left side uses m1 = phi^T lm.
    """
    tol = tol or ToleranceConfig()
    if cf.b.algebra.dim == 0:
        return 0.0
    ga = cf.a.gram()
    if nondegeneracy_margin(ga) <= tol.eq_tol:
        raise ValueError("degenerate A-form")
    ga_inv = np.linalg.inv(ga)
    gb_inv = cf.b.gram_inverse()
    mulb = cf.b.algebra.mul
    lm = mulb @ cf.b.functional
    # m1[i, k] = l_B(phi(a_i) f_k)
    m1 = cf.phi.T @ lm
    lhs = m1.T @ ga_inv @ m1
    y = np.tensordot(mulb, lm @ gb_inv, axes=(2, 0))
    rhs = np.tensordot(mulb, y, axes=([1, 2], [2, 0]))
    return float(np.max(np.abs(lhs - rhs)))


def verify_cardy_frobenius(cf, tol=None):
    """Numerical check of every bulk-boundary axiom.

    Residuals: commutativity of the bulk, phi being multiplicative and
    unit preserving, centrality of the image, and the transfer identity
    through both routes.  Margins: nondegeneracy of both Gram matrices.
    """
    tol = tol or ToleranceConfig()
    rep = VerificationReport(subject=cf.name, tol=tol.eq_tol)
    alg_a = cf.a.algebra
    alg_b = cf.b.algebra
    rep.residuals["commutativity"] = alg_a.commutator_residual()
    rep.margins["nondegeneracy_A"] = nondegeneracy_margin(cf.a.gram())
    if alg_b.dim == 0:
        return rep
    hom_images = np.einsum("ijc,bc->ijb", alg_a.mul, cf.phi)
    hom_products = np.einsum("bi,cj,bcd->ijd", cf.phi, cf.phi, alg_b.mul)
    rep.residuals["homomorphism"] = float(np.max(np.abs(hom_images - hom_products)))
    rep.residuals["unit_preservation"] = float(
        np.max(np.abs(cf.phi @ alg_a.unit - alg_b.unit))
    )
    left = np.einsum("bi,bkc->ikc", cf.phi, alg_b.mul)
    right = np.einsum("bi,kbc->ikc", cf.phi, alg_b.mul)
    rep.residuals["centrality"] = float(np.max(np.abs(left - right)))
    rep.residuals["cardy_trace"] = cardy_residual_trace(cf, tol=tol)
    rep.residuals["cardy_coordinate"] = cardy_residual_coordinates(cf, tol=tol)
    rep.margins["nondegeneracy_B"] = nondegeneracy_margin(cf.b.gram())
    return rep


def orthogonal_sum_cf(c1, c2, name=None):
    """Blockwise direct sum of two Cardy pairs."""
    a = orthogonal_sum(c1.a, c2.a)
    b = orthogonal_sum(c1.b, c2.b)
    phi = np.zeros((b.algebra.dim, a.algebra.dim), dtype=complex)
    d_b1, d_a1 = c1.phi.shape
    phi[:d_b1, :d_a1] = c1.phi
    phi[d_b1:, d_a1:] = c2.phi
    return CardyFrobeniusAlgebra(a, b, phi, name=name or ("%s+%s" % (c1.name, c2.name)))


def decompose_commutative(pair, tol=None, seed=0, attempts=3):
    """Split a commutative semisimple pair into idempotents.

    Diagonalises left multiplication by a random element; for a
    semisimple commutative algebra with a generic element the
    eigenvectors are scalar multiples of the orthogonal idempotents.
    Returns (idempotents, weights) with weights[i] = l(e_i), sorted by
    weight.  Raises ValueError("not semisimple") when no generic
    element yields a clean idempotent basis.
    """
    tol = tol or ToleranceConfig()
    alg = pair.algebra
    d = alg.dim
    rng = np.random.default_rng(seed)
    last_defect = np.inf
    for _ in range(attempts):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        vals, vecs = np.linalg.eig(alg.left_action_matrix(x))
        scale = max(1.0, float(np.max(np.abs(vals))))
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(d) * 2 * scale
        if float(np.min(gaps)) < tol.root_sep_tol * scale:
            continue
        idempotents = []
        defect = 0.0
        for i in range(d):
            v = vecs[:, i]
            sq = alg.multiply(v, v)
            j = int(np.argmax(np.abs(v)))
            c = sq[j] / v[j]
            if abs(c) < tol.eq_tol:
                defect = np.inf
                break
            e = v / c
            defect = max(defect, float(np.max(np.abs(alg.multiply(e, e) - e))))
            idempotents.append(e)
        if defect <= 1e3 * tol.eq_tol:
            total = np.sum(idempotents, axis=0)
            if float(np.max(np.abs(total - alg.unit))) > 1e3 * tol.eq_tol:
                last_defect = defect
                continue
            weights = np.array([pair.apply(e) for e in idempotents])
            order = np.lexsort((weights.imag, weights.real))
            return [idempotents[i] for i in order], weights[order]
        last_defect = min(last_defect, defect)
    raise ValueError("not semisimple")


def quaternionic_cf(rho, name=None):
    """Canonical quaternion block: bulk scale rho^2, boundary scale rho,
    phi sending the bulk unit to the boundary unit."""
    rho = complex(rho)
    a = number_pair(rho * rho)
    b = quaternion_pair(rho)
    phi = np.zeros((4, 1), dtype=complex)
    phi[0, 0] = 1.0
    return CardyFrobeniusAlgebra(a, b, phi, name=name or "quaternionic_block")


def matrix_cf(m, mu, name=None):
    """Canonical matrix block: bulk scale mu^2, boundary the m x m
    matrices with trace scale mu, phi sending 1 to the identity."""
    mu = complex(mu)
    a = number_pair(mu * mu)
    b = matrix_pair(m, mu)
    phi = b.algebra.unit.reshape(-1, 1).astype(complex)
    return CardyFrobeniusAlgebra(a, b, phi, name=name or ("matrix_block%d" % m))


def cf_to_dict(cf):
    """JSON-compatible encoding; phi is flattened row-major."""
    return {
        "name": cf.name,
        "a": pair_to_dict(cf.a),
        "b": pair_to_dict(cf.b),
        "phi": complex_to_json(cf.phi.reshape(-1)),
    }


def cf_from_dict(data):
    a = pair_from_dict(data["a"])
    b = pair_from_dict(data["b"])
    d_b, d_a = b.algebra.dim, a.algebra.dim
    if d_a and d_b:
        phi = json_to_complex(data["phi"]).reshape(d_b, d_a)
    else:
        phi = np.zeros((d_b, d_a), dtype=complex)
    return CardyFrobeniusAlgebra(a, b, phi, name=data.get("name", "cf"))
