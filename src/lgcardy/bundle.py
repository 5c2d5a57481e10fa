"""Boundary frame bundle over the deformation space and the two-route check.

A quaternion model carries one boundary block per critical point.  As
the polynomial moves, the natural basis of each block keeps its shape
but its scale rho drifts with the critical value data.  The frame kept
here rescales block i by lambda_i = sqrt(rho_base / rho), which pins the
boundary pairing to its value at the base point exactly; the alternative
scale lambda_i = rho_base / rho (enabled with ``paper_scale``) makes the
transfer tensor a gradient in the flat directions instead, at the price
of a drifting pairing.

From the base-point Cardy data the module assembles a truncated
two-alphabet potential series: bulk structure constants in flat
coordinates, the constant pairings as quadratic terms, the bulk-boundary
transfer as the mixed block, and the boundary triple pairing as the
cubic boundary block, read one declared boundary block at a time.
``verify_bundle`` then checks the same model along two independent
routes: the seven formal conditions on the series, and the pointwise
algebra axioms at the base point and at nearby sample points, and
reports whether the verdicts agree.  Controlled corruptions of single
axioms are provided to confirm that each failure surfaces in the
predicted condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import comb

import numpy as np

from .polycore import (
    LGPolynomial,
    ToleranceConfig,
    poly_eval,
)
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    complex_to_json,
    orthogonal_sum_list,
    quaternion_pair,
    verify_frobenius,
)
from .cardy import CardyFrobeniusAlgebra, verify_cardy_frobenius
from .landau_ginzburg import LGClosedAlgebra, _quaternion_model, build_closed
from .moduli import (
    _chart_on,
    _match_roots,
    coefficients_from_flat,
    reconstruct_potential,
    structure_tensor,
)
from .tensor_series import TensorSeries, encode_symmetric, ext_wdvv_check

__all__ = [
    "CORRUPTIONS",
    "PREDICTED_CONDITION",
    "FrameData",
    "BundleTensors",
    "BundleReport",
    "flat_s_frame",
    "bundle_tensors",
    "assemble_potential",
    "corrupt_model",
    "verify_bundle",
]

CORRUPTIONS = (
    "t_symmetry",
    "b_associativity",
    "centrality",
    "homomorphism",
    "cardy",
)

# Smallest-index series condition that each corruption drives above
# tolerance.  phi_swap is an extra negative control: swapping two block
# targets keeps phi a genuine central homomorphism, so the mixed-block
# conditions stay balanced and the failure surfaces only in the
# transfer-anchored condition, where the bulk weight mu_b meets the
# boundary weight of the wrong block.
PREDICTED_CONDITION = {
    "t_symmetry": "condition_1",
    "b_associativity": "condition_4",
    "centrality": "condition_5",
    "homomorphism": "condition_6",
    "phi_swap": "condition_7",
    "cardy": "condition_7",
}

# tolerance on the drift of the boundary pairing along the
# form-preserving frame, whose drift is zero up to rounding
FRAME_DRIFT_TOL = 1e-8


@dataclass
class FrameData:
    """Continued boundary frame at one nearby polynomial.

    ``closed`` is the closed algebra of that polynomial, in its own root
    order; ``roots`` and ``mu`` are matched to the base point.  ``drift``
    is the largest entry, in absolute value, of the frame's boundary
    Gram matrix minus the base one.
    """

    closed: LGClosedAlgebra
    roots: np.ndarray
    mu: np.ndarray
    rho: np.ndarray
    scales: np.ndarray
    drift: float


def flat_s_frame(model, q, tol=None, paper_scale=False):
    """Continue the boundary frame from the base model to a nearby point.

    ``q`` is the target polynomial, given either as an LGPolynomial or
    as its deformation coefficients.  Critical points are matched to the
    base point by nearest neighbour (an ambiguous match raises
    DegenerateModelError) and the square roots rho keep the sign
    closest to the base values.
    """
    tol = tol or ToleranceConfig()
    n = model.n
    p = q if isinstance(q, LGPolynomial) else LGPolynomial(n, tuple(q))
    closed_q = build_closed(p=p, tol=tol)
    perm = _match_roots(closed_q.roots, model.closed.roots, tol.root_sep_tol)
    roots = closed_q.roots[perm]
    mu = closed_q.mu[perm]
    rho = np.sqrt(mu.astype(complex))
    flip = np.abs(rho - model.rho) > np.abs(-rho - model.rho)
    rho = np.where(flip, -rho, rho)
    if paper_scale:
        scales = model.rho / rho
    else:
        scales = np.sqrt((model.rho / rho).astype(complex))
    # block i of the Gram matrix is s_i^2 rho_i diag(2, -2, -2, -2)
    drift = np.max([abs(2.0 * (s ** 2 * r - r0)) for s, r, r0 in zip(scales, rho, model.rho)])
    return FrameData(closed_q, roots, mu, rho, scales, float(drift))


@dataclass
class BundleTensors:
    """Boundary structure tensors at one point, in the continued frame.

    ``cB[u, v, w]`` pairs the product of two frame vectors against a
    third; it is block diagonal and each block carries the quaternion
    table scaled by the cube of the frame factor.  ``cAB[k, u]`` pairs
    the image of a flat tangent direction against a frame vector and is
    supported on the unit letter of each block.
    """

    cB: np.ndarray
    cAB: np.ndarray


def _cubic_blocks(pair):
    """The triple pairing l((f_u f_v) f_w) of a pair as one (offset,
    cube) per declared block.  It vanishes off the blocks, since a
    product of two basis vectors of one block stays in that block."""
    mul, l = pair.algebra.mul, pair.functional
    out = []
    for off, d in pair.algebra.blocks:
        b = mul[off:off + d, off:off + d, off:off + d]
        out.append((off, np.einsum("uvq,qwr,r->uvw", b, b, l[off:off + d])))
    return out


def bundle_tensors(model, q=None, frame=None, tol=None):
    """Structure tensors of the boundary sector at a nearby point.

    ``q`` gives the deformation coefficients of the target polynomial
    (default: the base point itself); alternatively pass an existing
    ``frame`` from flat_s_frame.  The tensors are expressed in the
    transported frame vectors lambda_i V e_i.
    """
    n = model.n
    if frame is None:
        frame = flat_s_frame(model, model.p.a if q is None else q, tol=tol)
    m = 4 * n
    boundary = orthogonal_sum_list([quaternion_pair(r) for r in frame.rho])
    cb = np.zeros((m, m, m), dtype=complex)
    for (off, cube), lam in zip(_cubic_blocks(boundary), frame.scales):
        cb[off:off + 4, off:off + 4, off:off + 4] = lam ** 3 * cube
    values = np.array([poly_eval(t, frame.roots) for t in _chart_on(frame.closed).tangents])
    cab = np.zeros((n, m), dtype=complex)
    cab[:, ::4] = values * (frame.scales * 2.0 * frame.rho)
    return BundleTensors(cB=cb, cAB=cab)


_POTENTIAL_CACHE = {}


def _cached_potential(n, tol):
    if n not in _POTENTIAL_CACHE:
        _POTENTIAL_CACHE[n] = reconstruct_potential(n, tol=tol)[0]
    return _POTENTIAL_CACHE[n]


def _shift_terms(terms, center):
    """Exponent dictionary of F(t + center) from that of F(t)."""
    out = {}
    for exps, coeff in terms.items():
        for pick in product(*[range(e + 1) for e in exps]):
            c = coeff
            for e, k, c0 in zip(exps, pick, center):
                c *= comb(e, k) * c0 ** (e - k)
            if c != 0.0:
                out[pick] = out.get(pick, 0.0) + c
    return out


def assemble_potential(model, t_degree=4, tol=None, cf=None):
    """Truncated potential series of a model at its own base point.

    The degree-two part is the constant pairing data by convention; the
    bulk cubic block is the structure tensor in flat coordinates (for a
    truncation above 4 the recentred global bulk potential supplies all
    bulk orders).  The boundary pairing, the boundary triple pairing
    l((f_u f_v) f_w) and the transfer are read off the Cardy data ``cf``
    (default: the model's own), one declared boundary block at a time,
    so a corrupted copy flows into the series.  The mixed block is the
    transfer at the base point, a linear mixed polynomial; the boundary
    blocks stay frozen at the base point at every truncation.
    """
    return _assemble(model, _chart_on(model.closed), model.cf if cf is None else cf,
                     t_degree, tol or ToleranceConfig())


def _assemble(model, chart, cf, t_degree, tol):
    """assemble_potential on the flat chart of the base point."""
    if t_degree < 3:
        raise ValueError("t-degree must be at least 3")
    n, m = model.n, cf.b.algebra.dim
    series = TensorSeries(n, m, t_degree)

    if t_degree <= 4:
        c3 = structure_tensor(chart)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    series.add_term((i, j, k), (), c3[i, j, k] / 6.0)
    else:
        bulk = _cached_potential(n, tol)
        shifted = _shift_terms(bulk.terms, np.asarray(chart.t, dtype=complex))
        higher = {e: c for e, c in shifted.items() if 3 <= sum(e) <= t_degree}
        series = series + encode_symmetric(higher, n, m, t_degree)

    for i in range(n):
        series.add_term((i, n - 1 - i), (), 0.5)
    # np.nonzero gives numpy integers, but series_to_dict JSON-encodes
    # the letters, so they are converted to Python ints
    gram = cf.b.gram()
    for u, v in zip(*np.nonzero(gram)):
        series.add_term((), (int(u), int(v)), gram[u, v])
    for off, cube in _cubic_blocks(cf.b):
        for u, v, w in zip(*np.nonzero(cube)):
            series.add_term((), (off + int(u), off + int(v), off + int(w)), cube[u, v, w] / 3.0)
    values = np.array([poly_eval(t, model.closed.roots) for t in chart.tangents])
    transfer = values @ cf.phi.T @ gram
    for k, u in zip(*np.nonzero(transfer)):
        series.add_term((int(k),), (int(u),), transfer[k, u])
    return series


def _corrupt_cf(cf, n, corruption, eps):
    mula = cf.a.algebra.mul.copy()
    la = cf.a.functional.copy()
    mulb = cf.b.algebra.mul.copy()
    lb = cf.b.functional.copy()
    phi = cf.phi.copy()
    if corruption == "t_symmetry":
        if n < 2:
            raise ValueError("t_symmetry corruption needs at least two bulk directions")
        mula[0, 1, 0] += eps
    elif corruption == "b_associativity":
        mulb[1, 2, 2] += eps
    elif corruption == "centrality":
        phi[:, 0] = 0.0
        phi[0, 0] = 0.5
        phi[1, 0] = 0.5j
    elif corruption == "homomorphism":
        if n < 2:
            raise ValueError("homomorphism corruption needs at least two blocks")
        phi[4, 0] += eps
    elif corruption == "phi_swap":
        if n < 2:
            raise ValueError("phi_swap corruption needs at least two blocks")
        phi[:, [0, 1]] = phi[:, [1, 0]]
    elif corruption == "cardy":
        lb[:4] *= 1.0 + eps
    else:
        raise ValueError("unknown corruption %r" % (corruption,))
    alga = cf.a.algebra
    algb = cf.b.algebra
    # t_symmetry writes across two bulk blocks, so the corrupted bulk is
    # declared as one block; every corruption stays inside a boundary block
    a_pair = FrobeniusPair(
        FiniteAlgebra(mula, alga.unit.copy(), alga.labels),
        la, name=cf.a.name,
    )
    b_pair = FrobeniusPair(
        FiniteAlgebra(mulb, algb.unit.copy(), algb.labels, algb.blocks),
        lb, name=cf.b.name,
    )
    return CardyFrobeniusAlgebra(a_pair, b_pair, phi, name=cf.name + "+" + corruption)


def corrupt_model(model, corruption, eps=0.05):
    """Copy of the base-point Cardy data with one axiom deliberately broken.

    t_symmetry      bulk product loses commutativity (the series route
                    additionally receives an order-asymmetric bump);
    b_associativity the first boundary block's product of I and J gains
                    a spurious J component;
    centrality      the first bulk idempotent maps to a genuine but
                    non-central idempotent (1 + iI)/2;
    homomorphism    the first bulk idempotent leaks into the unit of the
                    second block;
    phi_swap        the first two bulk idempotents map onto each other's
                    blocks; phi stays a genuine central homomorphism,
                    but the transfer identity pairs each block against
                    the wrong bulk weight;
    cardy           the boundary functional of the first block is
                    rescaled by 1 + eps.
    """
    return _corrupt_cf(model.cf, model.n, corruption, eps)


def _keep_nan(reduce, a, b):
    """``reduce(a, b)``, or NaN when a or b is NaN: the builtin max and
    min drop a NaN that comes second."""
    return np.nan if a != a or b != b else reduce(a, b)


def _pointwise_facts(cardy_rep, a_associativity, b_associativity):
    """The five pointwise algebra facts checked at every sample point,
    read off a Cardy report and the associator residuals of both pairs.
    A NaN residual makes its fact NaN."""
    r = cardy_rep.residuals
    facts = {
        "a_associativity": _keep_nan(max, a_associativity, r["commutativity"]),
        "b_associativity": b_associativity,
        "centrality": r["centrality"],
        "homomorphism": _keep_nan(max, r["homomorphism"], r["unit_preservation"]),
        "cardy": _keep_nan(max, r["cardy_trace"], r["cardy_coordinate"]),
    }
    return facts, dict(cardy_rep.margins)


@dataclass
class BundleReport:
    """Two-route verdict for one model.

    ``conditions`` holds the seven series conditions, ``pointwise`` the
    pointwise algebra facts and ``frame`` the frame pairing drift (empty
    under ``paper_scale``, whose drift is documented, not judged).  The
    model passes when all three reports pass and the routes agree.
    """

    n: int
    a: tuple
    t_degree: int
    corruption: object
    paper_scale: bool
    conditions: object
    pointwise: object
    frame: object
    frame_drift: float
    frame_scale_spread: float
    frame_scales: tuple
    routes_agree: bool

    @property
    def series_passed(self):
        return self.conditions.passed

    @property
    def pointwise_passed(self):
        return self.pointwise.passed

    @property
    def passed(self):
        return (self.series_passed and self.pointwise_passed and self.frame.passed
                and self.routes_agree)

    def entries(self):
        """Residual rows and margin rows of the three reports, in turn."""
        residuals, margins = [], []
        for rep in (self.conditions, self.pointwise, self.frame):
            rows, margin_rows = rep.entries()
            residuals += rows
            margins += margin_rows
        return residuals, margins

    def summary(self):
        lines = [
            "bundle n=%d corruption=%s: series %s, pointwise %s, routes %s"
            % (
                self.n,
                self.corruption or "none",
                "pass" if self.series_passed else "FAIL",
                "pass" if self.pointwise_passed else "FAIL",
                "agree" if self.routes_agree else "DISAGREE",
            ),
            "  frame drift %.3e, scale spread %.3e" % (self.frame_drift, self.frame_scale_spread),
        ]
        lines.append(self.conditions.summary())
        lines.append(self.pointwise.summary())
        return "\n".join(lines)

    def to_dict(self):
        return {
            "n": self.n,
            "a": complex_to_json(self.a),
            "t_degree": self.t_degree,
            "corruption": self.corruption,
            "paper_scale": self.paper_scale,
            "routes_agree": self.routes_agree,
            "series_passed": self.series_passed,
            "pointwise_passed": self.pointwise_passed,
            "frame_drift": self.frame_drift,
            "frame_scale_spread": self.frame_scale_spread,
            "frame_scales": complex_to_json(self.frame_scales),
            "conditions": self.conditions.to_dict(),
            "pointwise": self.pointwise.to_dict(),
            "frame": self.frame.to_dict(),
        }


def verify_bundle(model, t_degree=4, sample_points=10, sample_distance=1e-2,
                  tol=None, corruption=None, eps=0.05, paper_scale=False,
                  seed=0):
    """Check one model along the series route and the pointwise route.

    The series route assembles the truncated potential once at the base
    point and evaluates the seven conditions.  The pointwise route runs
    five algebra facts (bulk associativity, boundary associativity,
    centrality, homomorphism, transfer identity) on the base-point Cardy
    data and again on freshly built models at ``sample_points`` random
    flat displacements of the given distance, keeping the worst residual
    of each fact.  The unit and form symmetry residuals of the bulk and
    boundary pairs join them as two more facts, checked at the base
    point.  Both routes see the same corrupted primitives, the
    corruption being reapplied at every sample point.  The same sweep
    records the frame pairing drift, judged at FRAME_DRIFT_TOL unless
    ``paper_scale`` is set, and the frame scale spread max|lambda - 1|
    together with the scales of the sample point where it is largest.
    """
    tol = tol or ToleranceConfig()
    cf = model.cf if corruption is None else corrupt_model(model, corruption, eps=eps)
    chart = _chart_on(model.closed)
    series = _assemble(model, chart, cf, t_degree, tol)
    if corruption == "t_symmetry":
        series.add_term((0, 0, 1), (), eps)
        series.add_term((0, 1, 0), (), -eps)
    conditions = ext_wdvv_check(series, tol=tol)
    bulk_rep = verify_frobenius(cf.a, tol=tol)
    boundary_rep = verify_frobenius(cf.b, tol=tol)

    facts, margins = _pointwise_facts(
        verify_cardy_frobenius(cf, tol=tol),
        bulk_rep.residuals["associativity"],
        boundary_rep.residuals["associativity"],
    )
    rng = np.random.default_rng(seed)
    drift = 0.0
    spread = 0.0
    scales = tuple(np.ones(model.n, dtype=complex))
    for _ in range(sample_points):
        step = rng.standard_normal(model.n)
        step /= np.linalg.norm(step)
        t = np.asarray(chart.t, dtype=complex) + sample_distance * step
        a_q = coefficients_from_flat(model.n, t, a0=model.p.a, tol=tol)
        frame = flat_s_frame(model, a_q, tol=tol, paper_scale=paper_scale)
        drift = _keep_nan(max, drift, frame.drift)
        # the scales of the largest departure from 1 are reported, and a
        # NaN departure, once seen, stays
        spread_q = float(np.max(np.abs(frame.scales - 1.0)))
        if spread == spread and not spread_q < spread:
            spread, scales = spread_q, tuple(frame.scales)
        cf_q = _quaternion_model(frame.closed, model.branch).cf
        if corruption is not None:
            cf_q = _corrupt_cf(cf_q, model.n, corruption, eps)
        facts_q, margins_q = _pointwise_facts(
            verify_cardy_frobenius(cf_q, tol=tol),
            cf_q.a.algebra.associator_residual(),
            cf_q.b.algebra.associator_residual(),
        )
        for name in facts:
            facts[name] = _keep_nan(max, facts[name], facts_q[name])
        for name in margins:
            margins[name] = _keep_nan(min, margins[name], margins_q[name])
    # unit and form symmetry are checked at the base point only; their
    # form_nondegeneracy margins are nondegeneracy_A and _B again
    for name in ("unit", "form_symmetry"):
        facts[name] = _keep_nan(max, bulk_rep.residuals[name], boundary_rep.residuals[name])
    pointwise = VerificationReport(
        "pointwise axioms (%d sample points)" % sample_points,
        tol.eq_tol, facts, margins,
    )
    frame_rep = VerificationReport(
        "frame pairing drift", FRAME_DRIFT_TOL,
        {} if paper_scale else {"frame_drift": drift},
    )
    return BundleReport(
        n=model.n,
        a=model.p.a,
        t_degree=t_degree,
        corruption=corruption,
        paper_scale=paper_scale,
        conditions=conditions,
        pointwise=pointwise,
        frame=frame_rep,
        frame_drift=drift,
        frame_scale_spread=spread,
        frame_scales=scales,
        routes_agree=(conditions.passed == pointwise.passed),
    )
