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
coordinates (above truncation 4, with the fitted potential recentred at
the chart through the Taylor factors its cached layout holds), the
constant pairings as quadratic terms, the bulk-boundary transfer as the
mixed block, and the boundary triple pairing as the cubic boundary
block, read one declared boundary block at a time.  ``verify_bundle``
then checks the same model along two independent routes: the seven
formal conditions on the series, and the pointwise algebra axioms at the
base point and at nearby sample points swept as one stack, and reports
whether the verdicts agree.  Controlled corruptions of single axioms
confirm that each failure surfaces in the predicted condition.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .polycore import EQ_TOL, ROOT_SEP_TOL, _Failures, _degenerate, _read_only, poly_eval
from .frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    _dense,
    _frobenius_residuals,
    _matrices,
    _worst,
    _worst_row,
    complex_to_json,
)
from .cardy import CardyFrobeniusAlgebra, _cardy_checks
from .landau_ginzburg import _critical_data, _idempotents, _quaternion_cf
from .moduli import (
    _ansatz,
    _cached_potential,
    _chart_on,
    _invert_flat,
    _monomials,
    _recentring,
    structure_tensor,
)
from .tensor_series import TensorSeries, _conditions, _layout

__all__ = [
    "CORRUPTIONS",
    "PREDICTED_CONDITION",
    "BundleReport",
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


def _match_stack(roots, ref, failures):
    """Index of the root nearest each reference root, demanded bijective,
    for each row of ``roots`` (S, n) against the one reference ``ref``.

    Two candidate roots at the same distance (within ROOT_SEP_TOL) make the
    continuation ambiguous, as does any non-bijective assignment; such a
    row is flagged in ``failures`` as degenerate, a sign that the
    perturbation jumped between branches.
    """
    n = roots.shape[1]
    dist = np.abs(roots[:, None, :] - ref[None, :, None])
    order = np.argsort(dist, axis=-1)
    perm = order[..., 0]
    bad = np.any(np.sort(perm, axis=1) != np.arange(n), axis=1)
    if n > 1:
        near = np.take_along_axis(dist, order[..., :2], axis=-1)
        bad |= np.any(near[..., 1] - near[..., 0] < ROOT_SEP_TOL, axis=1)
    failures.flag(bad, _degenerate("frame continuation failed"))
    return perm


def _continue_frames(model, roots, mu, paper_scale, failures):
    """The frame continued from the base model to a stack of nearby
    polynomials, given by their critical points and weights in their own
    root order: roots matched by nearest neighbour (an ambiguous row is
    flagged in ``failures``), rho signed nearest the base values.  Returns
    the matched roots, weights, rho, scales and drift, each (S, ...)."""
    perm = _match_stack(roots, model.closed.roots, failures)
    roots = np.take_along_axis(roots, perm, axis=1)
    mu = np.take_along_axis(mu, perm, axis=1)
    rho = np.sqrt(mu.astype(complex))
    flip = np.abs(rho - model.rho) > np.abs(-rho - model.rho)
    rho = np.where(flip, -rho, rho)
    if paper_scale:
        scales = model.rho / rho
    else:
        scales = np.sqrt((model.rho / rho).astype(complex))
    # block i of the Gram matrix is s_i^2 rho_i diag(2, -2, -2, -2)
    drift = _worst([2.0 * (scales ** 2 * rho - model.rho)], axis=1)
    return roots, mu, rho, scales, drift


def _cubic_blocks(pair, gram):
    """The triple pairing l((f_u f_v) f_w) = sum_q c[u, v, q] G[q, w] of a
    pair with Gram matrix G as one (index, cubes) per stack of blocks,
    ``cubes[g]`` on the basis indices ``index[g]``.  It vanishes off the
    blocks, since a product of two basis vectors of one block stays there."""
    return [(index, (_matrices(c, 2) @ gram[index[:, :, None], index[:, None, :]]).reshape(c.shape))
            for index, c in pair.algebra.stacks]


def assemble_potential(model, t_degree=4, cf=None):
    """Truncated potential series of a model at its own base point.

    The degree-two part is the constant pairing data by convention.  The
    bulk block is read off the model's flat chart, never off ``cf.a``: its
    cubic layer is the structure tensor, and above truncation 4 the
    recentred global bulk potential supplies the orders 4 to ``t_degree``.
    The boundary pairing, the boundary triple pairing l((f_u f_v) f_w) and
    the transfer are read off ``cf`` (default: the model's own Cardy data),
    one declared boundary block at a time.  The mixed block is the transfer
    at the base point, a linear mixed polynomial; the boundary blocks stay
    frozen at the base point at every truncation.  The terms are the
    nonzero entries of the structural keys, in their order.
    """
    cf = model.cf if cf is None else cf
    keys, _, coeffs = _assemble(model, _chart_on(model.closed), cf, t_degree)
    return TensorSeries(model.n, cf.b.algebra.dim, t_degree,
                        {key: c for key, c in zip(keys, coeffs.tolist()) if c != 0})


@functools.lru_cache(maxsize=None)
def _assembled_layout(n, t_degree, blocks):
    """The structural keys of the boundary block rows ``blocks`` (one
    tuple per stack), the ansatz with the ``_recentring`` data of its bulk
    orders 4 to t_degree (none up to truncation 4) and their counts of
    orderings, and the check layout of the keys: integers only.  The keys
    are every bulk triple in product order (the bump words (0, 0, 1) and
    (0, 1, 0) at positions 1 and n), every ordering of those orders, the
    quadratic pairs, the Gram and cubic entries of each block in turn, and
    the transfer.  The arrays are read-only."""
    ansatz = _ansatz(n) if t_degree > 4 else np.zeros((0, n), dtype=int)
    exps, recentring = _recentring(ansatz, 4, t_degree)
    # each order is spread over its distinct orderings
    orders = [list(set(permutations([x for x, k in enumerate(e) for _ in range(k)])))
              for e in exps.tolist()]
    rows = [row for index in blocks for row in index]
    keys = [(w, ()) for w in product(range(n), repeat=3)]
    keys += [(w, ()) for order in orders for w in order]
    keys += [((i, n - 1 - i), ()) for i in range(n)]
    keys += [((), (u, v)) for row in rows for u in row for v in row]
    keys += [((), (u, v, w)) for row in rows for u in row for v in row for w in row]
    keys += [((k,), (u,)) for k in range(n) for u in range(sum(map(len, rows)))]
    counts = np.array(list(map(len, orders)), dtype=np.intp)
    return (tuple(keys),) + _read_only((ansatz, recentring, counts,
                                        _layout(n, sum(map(len, rows)), t_degree, keys)))


def _assemble(model, chart, cf, t_degree):
    """assemble_potential on the flat chart of the base point, as the
    structural keys of the declared boundary blocks, their cached check
    layout and their coefficients, exact zeros included."""
    if t_degree < 3:
        raise ValueError("t-degree must be at least 3")
    n, index = model.n, [i for i, _ in cf.b.algebra.stacks]
    blocks = tuple(tuple(map(tuple, i.tolist())) for i in index)
    keys, ansatz, (binom, (m, q), low), counts, layout = _assembled_layout(n, t_degree, blocks)
    coeffs = [structure_tensor(chart).ravel() / 6.0]
    if len(q):
        # the bulk potential read by exponent and recentred at the chart
        terms = dict(_cached_potential(n).terms)
        f = np.array([terms.pop(e, 0.0) for e in map(tuple, ansatz.tolist())], dtype=complex)
        if terms:
            raise ValueError("potential has monomials outside the ansatz: %s" % sorted(terms))
        values = np.zeros(len(counts), dtype=complex)
        np.add.at(values, q, f[m] * binom * _monomials(chart.t, low))
        coeffs.append(np.repeat(values / counts, counts))
    gram, roots = cf.b.gram(), model.closed.roots
    transfer = np.array([poly_eval(t, roots) for t in chart.tangents]) @ cf.phi.T @ gram
    coeffs += [np.full(n, 0.5)] + [gram[i[:, :, None], i[:, None, :]].ravel() for i in index]
    coeffs += [c.ravel() / 3.0 for _, c in _cubic_blocks(cf.b, gram)] + [transfer.ravel()]
    return keys, layout, np.concatenate(coeffs)


def _corrupt_cf(cf, n, corruption, eps):
    """corrupt_model on a quaternion model's Cardy data or the sweep's stack
    of them: one bulk and one boundary stack.  An edit lands in a copy; the
    unedited stacks are shared read-only, so an edit in place raises."""
    (index_a, cubes_a), = cf.a.algebra.stacks
    (index_b, cubes_b), = cf.b.algebra.stacks
    lb = cf.b.functional.copy()
    phi = cf.phi.copy()
    if corruption == "t_symmetry":
        if n < 2:
            raise ValueError("t_symmetry corruption needs at least two bulk directions")
        # the write spans bulk blocks 0 and 1, so the bulk becomes one block
        mula = _dense(cf.a.algebra.stacks, n)
        mula[0, 1, 0] += eps
        index_a, cubes_a = np.arange(n)[None], mula[None]
    elif corruption == "b_associativity":
        cubes_b = cubes_b.copy()
        cubes_b[0, 1, 2, 2] += eps
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
        lb[..., :4] *= 1.0 + eps
    else:
        raise ValueError("unknown corruption %r" % (corruption,))
    alga, algb = cf.a.algebra, cf.b.algebra
    a_pair = FrobeniusPair(FiniteAlgebra._from_stacks([(index_a, cubes_a)], alga.unit, alga.labels),
                           cf.a.functional.copy(), name=cf.a.name)
    b_pair = FrobeniusPair(FiniteAlgebra._from_stacks([(index_b, cubes_b)], algb.unit, algb.labels),
                           lb, name=cf.b.name)
    return CardyFrobeniusAlgebra(a_pair, b_pair, phi, name=cf.name + "+" + corruption)


def corrupt_model(model, corruption, eps=0.05):
    """Copy of the base-point Cardy data with one axiom deliberately broken.

    t_symmetry      bulk product loses commutativity (the series reads
                    its bulk off the chart, so verify_bundle gives its
                    series route an order-asymmetric bump instead);
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


def _pointwise_facts(defects, a_associativity, b_associativity):
    """The five pointwise algebra facts checked at every sample point,
    reduced by the rule from the Cardy defects of a stack and the
    associator residuals of both pairs: the transfer identity per point,
    every other fact, whose defects the points share, as one value."""
    return {
        "a_associativity": _worst([a_associativity] + defects["commutativity"]),
        "b_associativity": _worst([b_associativity]),
        "centrality": _worst(defects["centrality"]),
        "homomorphism": _worst(defects["homomorphism"] + defects["unit_preservation"]),
        "cardy": _worst(defects["cardy_trace"] + defects["cardy_coordinate"], axis=(-2, -1)),
    }


def _sample_sweep(model, chart, corruption, eps, sample_points, sample_distance, tol,
                  paper_scale, seed):
    """The pointwise route at the base point and the sample points, as
    one stack.

    The steps are drawn first, all S at once (the same numbers as S
    draws of n); the flat inversion, the critical data and the frame
    continuation run on the S sample points, the quaternion models with
    the corruption reapplied and the axiom checks on 1 + S rows, row 0
    the base point.  Each guard flags the points it refuses; a flagged
    point is carried on with the base point's data and, at the end, the
    error of the first flagged row is raised, the one a loop over the
    points would have met first.  Returns the Cardy defects and margins
    of the rows (the structure-only defects shared by every row), and the
    frame drift and scales of every sample point.
    """
    n = model.n
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((sample_points, n))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    targets = np.asarray(chart.t, dtype=complex) + sample_distance * steps
    failures = _Failures(sample_points)
    a = _invert_flat(n, targets, model.p.a, failures)
    a[~failures.ok] = model.p.a
    _, roots, values = _critical_data(a, failures)
    _, mu = _idempotents(roots, values, failures.ok)
    bad = ~failures.ok
    roots[bad], mu[bad] = model.closed.roots, model.closed.mu
    _, _, _, scales, drift = _continue_frames(model, roots, mu, paper_scale, failures)
    # row 0, the base point, passed these guards when the model was built
    failures.errors.insert(0, None)
    # the models are built in each point's own root order
    _, _, cf = _quaternion_cf(np.concatenate([model.closed.mu[None], mu]), model.branch, failures)
    if corruption is not None:
        cf = _corrupt_cf(cf, n, corruption, eps)
    defects, margins, degenerate = _cardy_checks(cf, tol)
    failures.flag(degenerate, lambda s: ValueError("degenerate A-form"))
    failures.raise_first()
    return defects, margins, scales, drift


@dataclass
class BundleReport:
    """Two-route verdict for one model.

    ``conditions`` holds the seven series conditions, ``pointwise`` the
    pointwise algebra facts at the base point and ``sample_points`` others,
    and ``frame`` the frame pairing drift (empty under ``paper_scale``,
    whose drift is documented, not judged).  The model passes when all
    three reports pass and the routes agree.
    ``worst_sample`` maps each pointwise fact and margin to the point
    that gave its worst value: 0 is the base point, k the k-th sample
    point; a NaN counts as worst, and a tie within about 128 ulps of the
    worst value goes to the first point (``frobenius._worst_row``).
    ``to_dict`` is the verdict block of the CLI's ``bundle`` report: the
    rows of the three reports, the frame and sample data, and ``passed``.
    """

    n: int
    corruption: object
    paper_scale: bool
    sample_points: int
    conditions: object
    pointwise: object
    frame: object
    frame_drift: float
    frame_scale_spread: float
    frame_scales: tuple
    routes_agree: bool
    worst_sample: dict

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
        residuals, margins = self.entries()
        data = {"routes_agree": self.routes_agree, "frame_scale_spread": self.frame_scale_spread,
                "frame_scales": complex_to_json(self.frame_scales),
                "sample_points": self.sample_points, "frame_drift": self.frame_drift,
                "worst_sample": dict(self.worst_sample)}
        return {"residuals": residuals, "margins": margins, "data": data, "passed": self.passed}


def verify_bundle(model, t_degree=4, sample_points=10, sample_distance=1e-2,
                  tol=EQ_TOL, corruption=None, eps=0.05, paper_scale=False,
                  seed=0):
    """Check one model along the series route and the pointwise route.

    The series route writes the assembled coefficients at the base point
    over the structural keys of (n, t_degree, boundary blocks), whose
    layout is built once per key, and evaluates the seven conditions in
    one numeric pass; a t_degree below 4 leaves conditions 3-7 no class
    to judge and is refused with ValueError.  The pointwise route runs
    five algebra facts (bulk associativity, boundary associativity,
    centrality, homomorphism, transfer identity) on the base-point Cardy
    data and on freshly built models at ``sample_points`` random flat
    displacements of the given distance, keeping the worst value of each
    fact and the point where it occurred.  The sample points are
    inverted, framed and built in batched passes, and checked together
    with the base point as one stack (see ``_sample_sweep``); a point
    that fails a guard raises the error a loop over the points would
    have raised first.  The unit and form symmetry residuals of the bulk
    and boundary pairs join them as two more facts, checked at the base
    point.  The corruption is reapplied at every sample point; the series
    reads its bulk off the chart, not off ``cf.a``, so it sees
    ``t_symmetry`` only through an order-asymmetric bump on its words
    (0, 0, 1) and (0, 1, 0).  The same sweep records the frame pairing
    drift, judged at FRAME_DRIFT_TOL unless ``paper_scale`` is set, and
    the frame scale spread max|lambda - 1| together with the scales of
    the sample point where it is largest, picked by the row rule.
    """
    if t_degree < 4:
        raise ValueError("verify_bundle needs a t_degree of at least 4, got %r: below it no"
                         " class is in the window of conditions 3-7" % (t_degree,))
    n = model.n
    cf = model.cf if corruption is None else corrupt_model(model, corruption, eps=eps)
    chart = _chart_on(model.closed)
    _, layout, coeffs = _assemble(model, chart, cf, t_degree)
    if corruption == "t_symmetry":  # the bump words (0, 0, 1) and (0, 1, 0)
        coeffs[[1, n]] += (eps, -eps)
    conditions = _conditions(layout, coeffs, tol)
    bulk, _ = _frobenius_residuals(cf.a)
    boundary, _ = _frobenius_residuals(cf.b)

    defects, margins, scales, drifts = _sample_sweep(
        model, chart, corruption, eps, sample_points, sample_distance, tol, paper_scale, seed)
    # each value per row, the base point first; every row shares the
    # cubes, so the associators are the base point's
    facts = _pointwise_facts(defects, bulk["associativity"], boundary["associativity"])
    worst_sample = {name: _worst_row(v) for name, v in facts.items()}
    worst_sample.update({name: _worst_row(v, np.argmin) for name, v in margins.items()})
    # a shared value is its own worst row; NaN if any row is
    facts = {name: float(np.max(v)) for name, v in facts.items()}
    margins = {name: float(np.min(v)) for name, v in margins.items()}
    # unit and form symmetry are checked at the base point only; the
    # form_nondegeneracy margins would be nondegeneracy_A and _B again
    for name in ("unit", "form_symmetry"):
        facts[name] = _worst([bulk[name], boundary[name]])
        worst_sample[name] = 0

    drift = _worst([drifts])
    # the scales of the sample point with the largest departure from 1
    spreads = _worst([scales - 1.0], axis=1)
    if not sample_points:
        spread, frame_scales = 0.0, tuple(np.ones(n, dtype=complex))
    else:
        spread, frame_scales = float(np.max(spreads)), tuple(scales[_worst_row(spreads)])
    pointwise = VerificationReport("pointwise axioms (%d sample points)" % sample_points,
                                   tol, facts, margins)
    frame_rep = VerificationReport("frame pairing drift", FRAME_DRIFT_TOL,
                                   {} if paper_scale else {"frame_drift": drift})
    return BundleReport(
        n=n,
        corruption=corruption,
        paper_scale=paper_scale,
        sample_points=sample_points,
        conditions=conditions,
        pointwise=pointwise,
        frame=frame_rep,
        frame_drift=drift,
        frame_scale_spread=spread,
        frame_scales=frame_scales,
        routes_agree=(conditions.passed == pointwise.passed),
        worst_sample=worst_sample,
    )
