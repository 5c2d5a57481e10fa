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

Both algebras are read as stacks of block cubes (see
:mod:`lgcardy.frobenius`), and phi on a stack of boundary blocks as the
slab of its rows there.  The multiplicativity, centrality and trace
contractions vanish between blocks, so each runs per block size as
batched matrix products on reshaped cubes; the Gram matrices and the
dim B x dim B left-hand sides stay dense.  A pair whose two
functionals carry a leading sample axis stands for a stack of pairs on
one algebra and one phi: the structure residuals are computed once for
the stack, and the Gram matrices, both transfer routes and the margins
once per sample, in batched calls.

The module also splits a commutative semisimple pair into its
one dimensional blocks by diagonalising multiplication by a random
element.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycore import DEGENERACY_TOL, EQ_TOL, ROOT_SEP_TOL
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    _matrices,
    _worst,
    complex_to_json,
    json_to_complex,
    matrix_pair,
    nondegeneracy_margin,
    number_pair,
    pair_from_dict,
    pair_to_dict,
    quaternion_pair,
)

__all__ = [
    "CardyFrobeniusAlgebra",
    "verify_cardy_frobenius",
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


def _adjoint(cf, ga, gb):
    """The adjoint phi* of phi with respect to the two bilinear forms, the
    (dim A, dim B) matrix X with (a, X b)_A = (phi a, b)_B: solves
    ga X = phi^T gb."""
    return np.linalg.solve(ga, cf.phi.T @ gb)


def _trace_route(cf, ga, gb):
    """Defect (phi* f_k, phi* f_l)_A - tr(b -> f_k b f_l), the (dim B,
    dim B) matrix over (k, l), given both Gram matrices (or a stack of
    matrices, one per stacked pair).  The traces vanish unless f_k and
    f_l lie in one block, and each stack of blocks gives its blocks'
    traces in one batched matrix product."""
    ps = _adjoint(cf, ga, gb)
    lhs = ps.swapaxes(-1, -2) @ ga @ ps
    alg = cf.b.algebra
    # tr(b -> f_k b f_l) = sum_mi c[k, m, i] c[i, l, m], as (k, mi) @ (mi, l)
    traces = [_matrices(c, 1) @ _matrices(c.transpose(0, 3, 1, 2), 2) for _, c in alg.stacks]
    return lhs - alg.block_matrix(traces)


def _coordinate_route(cf, ga, gb):
    """Defect of the dual-basis form of the transfer identity, left side
    minus right side as _trace_route gives its defect.

    For every boundary pair (x, y) = (f_k, f_l) it compares
    sum_ij (G_A^-1)[i,j] l_B(phi(a_i) x) l_B(phi(a_j) y) against
    sum_sr (G_B^-1)[r,s] l_B(x f_s y f_r).

    The right side vanishes unless f_k and f_l lie in one block, and a
    block of dimension d is contracted in O(d^4) time, two batched matrix
    products per stack of blocks: with lm[d, r] = l_B(f_d f_r) and x =
    lm G_B^-1, first y[c, l, s] = sum_d mul[c, l, d] x[d, s], then
    rhs[k, l] = sum_sc mul[k, s, c] y[c, l, s], all indices in the block.
    The product lm G_B^-1 is formed numerically, not cancelled to the
    identity, so the route still sees the boundary functional and
    both Gram factors.  The left side uses m1 = phi^T lm.
    """
    alg = cf.b.algebra
    # m1[i, k] = l_B(phi(a_i) f_k)
    m1 = cf.phi.T @ gb
    lhs = m1.swapaxes(-1, -2) @ np.linalg.inv(ga) @ m1
    x = gb @ np.linalg.inv(gb)
    rhs = []
    for index, c in alg.stacks:
        # y as its transpose y[s, c, l], so that rhs is (k, sc) @ (sc, l)
        xb = x[..., index[:, :, None], index[:, None, :]]
        y = xb.swapaxes(-1, -2) @ _matrices(c, 2).swapaxes(-1, -2)
        rhs.append(_matrices(c, 1) @ y.reshape(y.shape[:-2] + (-1, c.shape[1])))
    return lhs - alg.block_matrix(rhs)


def verify_cardy_frobenius(cf, tol=EQ_TOL):
    """Numerical check of every bulk-boundary axiom.

    Residuals: commutativity of the bulk, phi being multiplicative and
    unit preserving, centrality of the image, and the transfer identity
    through both routes.  Margins: nondegeneracy of both Gram matrices.
    This is the one-pair case of the stacked check ``_cardy_checks``.
    Raises ValueError("degenerate A-form") when the bulk Gram matrix is
    too close to singular for the transfer identity.
    """
    defects, margins, degenerate = _cardy_checks(cf, tol)
    if degenerate:
        raise ValueError("degenerate A-form")
    return VerificationReport(cf.name, tol, {k: _worst(v) for k, v in defects.items()},
                              {k: float(v) for k, v in margins.items()})


def _cardy_checks(cf, tol):
    """Defect arrays and margins of verify_cardy_frobenius for one pair or
    a stack of pairs, and whether the bulk form is too degenerate for the
    transfer identity (margin at or below ``tol``).  ``defects`` maps each
    residual name to its list of defect arrays, for the caller to reduce.

    The structure constants are read one stack of blocks at a time, phi
    as the (g, d, dim A) slab of its rows on the stacked blocks; the
    (dim A, dim A, dim B) homomorphism tensors stay dense.  The defects
    that do not read a functional are computed once, shared by a stack;
    the Gram matrices, their margins and both transfer routes once per
    functional, the routes as (S, dim B, dim B) defects and the margins
    as (S,) arrays for a stack.  A degenerate bulk form, or a pair of
    forms with a non-finite entry, is replaced by the identity before the
    routes, so that the other samples of a stack still get theirs: the
    route defects of a non-finite pair are NaN, those of a degenerate one
    are meaningless and refused by the caller.
    """
    alg_a = cf.a.algebra
    alg_b = cf.b.algebra
    phi = cf.phi
    defects = {"commutativity": alg_a._commutator_defects()}
    ga = cf.a.gram()
    margin_a = nondegeneracy_margin(ga)
    margins = {"nondegeneracy_A": margin_a}
    if alg_b.dim == 0:
        return defects, margins, np.zeros(np.shape(margin_a), dtype=bool)
    # images[i, j] = phi(a_i a_j), products[i, j] = phi(a_i) phi(a_j)
    images = np.zeros((alg_a.dim, alg_a.dim, alg_b.dim), dtype=complex)
    for index, c in alg_a.stacks:
        images[index[:, :, None], index[:, None, :]] = (
            _matrices(c, 2) @ phi[:, index].transpose(1, 2, 0)).reshape(c.shape[:3] + (-1,))
    products = np.zeros_like(images)
    central = []
    for index, c in alg_b.stacks:
        g, d = c.shape[:2]
        slab = phi[index].transpose(0, 2, 1)  # slab[g, i, b] = phi[index[g, b], i]
        # products[i, j, g, e] = sum_c phi(a_j)_c (phi(a_i) f_c)_e, as (j, c) @ (c, ie)
        left = (slab @ _matrices(c, 1)).reshape(g, -1, d, d)
        right = slab @ left.transpose(0, 2, 1, 3).reshape(g, d, -1)
        products[:, :, index] = right.reshape(g, alg_a.dim, alg_a.dim, d).transpose(2, 1, 0, 3)
        # phi(a_i) f_k - f_k phi(a_i) on the block of f_k
        central.append((slab @ _matrices(c - c.transpose(0, 2, 1, 3), 1)).reshape(left.shape))
    defects["homomorphism"] = [images - products]
    defects["unit_preservation"] = [phi @ alg_a.unit - alg_b.unit]
    defects["centrality"] = central
    gb = cf.b.gram()
    margins["nondegeneracy_B"] = nondegeneracy_margin(gb)
    degenerate = np.asarray(margin_a <= tol)
    # NaN where either form has a non-finite entry
    unknown = np.isnan(margin_a + margins["nondegeneracy_B"])
    skip = unknown | degenerate
    if skip.any():
        skip = skip[..., None, None]
        ga, gb = np.where(skip, np.eye(alg_a.dim), ga), np.where(skip, np.eye(alg_b.dim), gb)
    nan = np.where(unknown, np.nan, 0.0)[..., None, None]
    defects["cardy_trace"] = [_trace_route(cf, ga, gb) + nan]
    defects["cardy_coordinate"] = [_coordinate_route(cf, ga, gb) + nan]
    return defects, margins, degenerate


def decompose_commutative(pair, tol=EQ_TOL, seed=0):
    """Split a commutative semisimple pair into idempotents.

    Diagonalises left multiplication by a random element, up to three
    of them; for a semisimple commutative algebra with a generic element
    the eigenvectors are scalar multiples of the orthogonal idempotents.
    Returns (idempotents, weights) with weights[i] = l(e_i), sorted by
    weight.  Raises ValueError("not semisimple") when no generic
    element yields a clean idempotent basis.
    """
    alg = pair.algebra
    d = alg.dim
    rng = np.random.default_rng(seed)
    for _ in range(3):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        vals, vecs = np.linalg.eig(alg.left_action_matrix(x))
        scale = max(1.0, float(np.max(np.abs(vals))))
        gaps = np.abs(vals[:, None] - vals[None, :]) + np.eye(d) * 2 * scale
        if float(np.min(gaps)) < ROOT_SEP_TOL * scale:
            continue
        idempotents = []
        defect = 0.0
        for i in range(d):
            v = vecs[:, i]
            sq = alg.multiply(v, v)
            j = int(np.argmax(np.abs(v)))
            c = sq[j] / v[j]
            if abs(c) < tol:
                defect = np.inf
                break
            e = v / c
            defect = max(defect, float(np.max(np.abs(alg.multiply(e, e) - e))))
            idempotents.append(e)
        if defect <= DEGENERACY_TOL:
            total = np.sum(idempotents, axis=0)
            if float(np.max(np.abs(total - alg.unit))) > DEGENERACY_TOL:
                continue
            weights = np.array([pair.apply(e) for e in idempotents])
            order = np.lexsort((weights.imag, weights.real))
            return [idempotents[i] for i in order], weights[order]
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
