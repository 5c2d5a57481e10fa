"""The block-stacked series conditions against the dense letter einsums.

``_dense_conditions`` writes out conditions 3-7 of ``ext_wdvv_check`` the
way they ran before the route was block-stacked: T3, S3 and M2 built by a
per-term loop over every pick of positions, dense over all m s-letters,
and each class product summed one output class at a time over the full
pair list of ``class_basis``.  ``ext_wdvv_check`` must reproduce its
residuals to 1e-12 max(1, |v|), with the same pass flags, on assembled
series of every size, corruption and truncation, on series with no block
structure, on a series whose blocks merge, and through a JSON round trip;
and a NaN or inf must reach the residuals it feeds.
"""

import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from lgcardy.bundle import CORRUPTIONS, assemble_potential, corrupt_model
from lgcardy.landau_ginzburg import build_quaternion_model
from lgcardy.polycore import DegenerateModelError
from lgcardy.tensor_series import (
    TensorSeries,
    class_basis,
    ext_wdvv_check,
    series_from_dict,
    series_to_dict,
)

from letter_calculus import class_tensors

NAMES = ["condition_%d" % k for k in (3, 4, 5, 6, 7)]
TOL = 1e-9


def _without(word, positions):
    return tuple(sorted(w for q, w in enumerate(word) if q not in positions))


def _dense_tensors(series, index):
    """T3, S3 and M2, dense in the letters, one term at a time."""
    n, m, size = series.n, series.m, len(index)
    t3 = np.zeros((n, n, n, size), dtype=complex)
    s3 = np.zeros((m, m, m, size), dtype=complex)
    m2 = np.zeros((n, m, size), dtype=complex)
    for (tw, sw), coeff in series.terms.items():
        tkey, skey = tuple(sorted(tw)), tuple(sorted(sw))
        for picked in combinations(range(len(tw)), 3):
            c = index.get((_without(tw, picked), skey))
            if c is not None:
                for i, j, p in permutations([tw[q] for q in picked]):
                    t3[i, j, p, c] += coeff
        for x in range(len(tw)):
            for y in range(len(sw)):
                c = index.get((_without(tw, (x,)), _without(sw, (y,))))
                if c is not None:
                    m2[tw[x], sw[y], c] += coeff
        ell = len(sw)
        for start in range(ell):
            for p, q in combinations(range(1, ell), 2):
                picked = [(start + d) % ell for d in (0, p, q)]
                c = index.get((tkey, _without(sw, picked)))
                if c is not None:
                    i, j, r = (sw[x] for x in picked)
                    s3[i, j, r, c] += coeff
    return t3, s3, m2


def _class_product(spec, x, y, pairs):
    """einsum(spec) of two class-valued tensors, one output class at a time."""
    for ab in pairs:
        yield sum(np.einsum(spec, x[..., a], y[..., b]) for a, b in ab)


def _worst(defects):
    return float(np.max([0.0] + [np.max(np.abs(d)) for d in defects if np.size(d)]))


def _gram(series, size, side):
    out = np.zeros((size, size), dtype=complex)
    for words, c in series.terms.items():
        if len(words[side]) == 2 and not words[1 - side]:
            x, y = words[side]
            out[x, y] += c
            out[y, x] += c
    return out


def _dense_conditions(series):
    """Residuals of conditions 3-7 by dense einsums over all letters."""
    n, m = series.n, series.m
    fa = np.linalg.inv(_gram(series, n, 0))
    fb = np.linalg.inv(0.5 * _gram(series, m, 1)) if m else np.zeros((0, 0))
    index, pairs = class_basis(n, m, series.truncation - 4)
    t3, s3, m2 = _dense_tensors(series, index)
    m2fa = np.einsum("pka,pq->kqa", m2, fa)
    m2fb = np.einsum("kpa,pq->kqa", m2, fb)
    out = {}
    lhs3 = _class_product("ijq,qkl->ijkl", np.einsum("ijpa,pq->ijqa", t3, fa), t3, pairs)
    out["condition_3"] = _worst(v - np.einsum("kjil->ijkl", v) for v in lhs3)
    lhs4 = _class_product("ijq,qkl->ijkl", np.einsum("ijpa,pq->ijqa", s3, fb), s3, pairs)
    out["condition_4"] = _worst(v - np.einsum("lijk->ijkl", v) for v in lhs4)
    lhs5 = _class_product("kq,qij->kij", m2fb, s3, pairs)
    out["condition_5"] = _worst(v - np.einsum("kji->kij", v) for v in lhs5)
    inner = np.stack(list(_class_product("iq,qkr->ikr", m2fb, s3, pairs)), axis=-1)
    lhs6 = _class_product("kq,qij->kij", m2fa, t3, pairs)
    rhs6 = _class_product("ikr,jr->kij", inner, np.einsum("rl,jla->jra", fb, m2), pairs)
    out["condition_6"] = _worst(l - r for l, r in zip(lhs6, rhs6))
    s3fbfb = np.einsum("upla,pq->ulqa", np.einsum("upra,rl->upla", s3, fb), fb)
    lhs7 = _class_product("uq,qv->uv", m2fa, m2, pairs)
    rhs7 = _class_product("ulq,lvq->uv", s3fbfb, s3, pairs)
    out["condition_7"] = _worst(l - r for l, r in zip(lhs7, rhs7))
    return out


def _block_shapes(series):
    """The (g, d) letter arrays of the s-block stacks of a series."""
    _, stacks, _ = class_tensors(series, class_basis(series.n, series.m, 0)[0])
    return sorted(letters.shape for letters, _ in stacks)


def _assert_matches(series):
    got = ext_wdvv_check(series).residuals
    want = _dense_conditions(series)
    for name in NAMES:
        g, w = got[name], want[name]
        assert (g <= TOL) == (w <= TOL), (name, g, w)
        if np.isfinite(w):
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (name, g, w)
        else:
            assert not np.isfinite(g), (name, g, w)
    return got


def _seeded_model(n, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        a = tuple(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        try:
            return build_quaternion_model(n=n, a=a)
        except DegenerateModelError:
            continue


def _variants(model, t_degree, eps=0.05):
    """The assembled series of a model, clean and under each corruption
    that its size allows, with the order-asymmetric bump of t_symmetry."""
    yield "clean", assemble_potential(model, t_degree=t_degree)
    for kind in CORRUPTIONS + ("phi_swap",):
        if model.n < 2 and kind in ("t_symmetry", "homomorphism", "phi_swap"):
            continue
        series = assemble_potential(model, t_degree=t_degree, cf=corrupt_model(model, kind, eps))
        if kind == "t_symmetry":
            series.add_term((0, 0, 1), (), eps)
            series.add_term((0, 1, 0), (), -eps)
        yield kind, series


CASES = [(n, 4) for n in range(1, 9)] + [(n, 5) for n in (1, 2, 3)] + [(2, 6)]


@pytest.mark.parametrize("n, t_degree", CASES)
def test_block_route_matches_dense_on_assembled_series(n, t_degree):
    model = _seeded_model(n)
    fired = set()
    for kind, series in _variants(model, t_degree):
        got = _assert_matches(series)
        fired |= {name for name in NAMES if not got[name] <= TOL}
    # the corruptions reach conditions 4-7 on the blocks
    if n >= 2:
        assert {"condition_4", "condition_5", "condition_6", "condition_7"} <= fired


def _random_series(n, m, truncation, count, seed):
    rng = np.random.default_rng(seed)
    f = TensorSeries(n, m, truncation)
    for _ in range(count):
        length = rng.integers(2, truncation + 1)
        split = rng.integers(0, length + 1)
        f.add_term(tuple(rng.integers(0, n, split)), tuple(rng.integers(0, m, length - split)),
                   complex(rng.standard_normal(), rng.standard_normal()))
    for i in range(n):
        f.add_term((i, n - 1 - i), (), 1.0)
    for u in range(m):
        f.add_term((), (u, u), 1.0)
    return f


@pytest.mark.parametrize("truncation", [4, 5, 6])
def test_block_route_matches_dense_without_block_structure(truncation):
    for seed in range(3):
        for n, m, count, shift in ((2, 3, 150, 0), (3, 5, 200, 5)):
            series = _random_series(n, m, truncation, count, seed=seed + 10 * truncation + shift)
            assert _block_shapes(series) == [(1, m)]
            _assert_matches(series)


def test_a_cross_block_word_merges_two_blocks():
    model = _seeded_model(3, seed=4)
    for _, series in _variants(model, 4):
        # letters 2 and 6 sit in the first two quaternion blocks
        series.add_term((), (2, 6, 6), 0.3 - 0.1j)
        assert _block_shapes(series) == [(1, 4), (1, 8)]
        got = _assert_matches(series)
        assert got["condition_4"] > TOL


def test_block_route_survives_a_json_round_trip():
    model = _seeded_model(2, seed=2)
    for _, series in _variants(model, 5):
        back = series_from_dict(series_to_dict(series))
        assert ext_wdvv_check(back).residuals == pytest.approx(ext_wdvv_check(series).residuals,
                                                               rel=1e-12, abs=1e-12)
        _assert_matches(back)


def test_non_finite_coefficients_reach_their_conditions():
    model = _seeded_model(2, seed=1)
    series = assemble_potential(model)
    # a NaN in the cubic of the second block feeds S3 alone
    series.add_term((), (4, 5, 6), np.nan)
    got = _assert_matches(series)
    assert got["condition_3"] <= TOL
    for name in NAMES[1:]:
        assert np.isnan(got[name]), name

    # an inf in the T3 slice of a degree-one class feeds conditions 3 and
    # 6; without mixed terms every M2 slice is dead, so no live pair of
    # condition 6 meets it
    series = assemble_potential(model, t_degree=5)
    series.add_term((0, 0, 0, 1), (), np.inf)
    bare = series.copy()
    bare.terms = {k: c for k, c in bare.terms.items() if not (k[0] and k[1])}
    for f in (series, bare):
        # inf - inf and inf * 0 are expected here
        with np.errstate(invalid="ignore"):
            got = _assert_matches(f)
            rep = ext_wdvv_check(f)
        assert not rep.passed
        # the t-word (0, 0, 0, 1) disagrees with its other orderings too
        for name in ("condition_1", "condition_3", "condition_6"):
            assert np.isnan(rep.residuals[name]), name
        for name in ("condition_4", "condition_5", "condition_7"):
            assert np.isfinite(got[name]), name


def test_series_check_heap_stays_small_at_n8():
    # per-block storage grows about as n^2 4^4, not as (4n)^4
    series = assemble_potential(_seeded_model(8, seed=78))
    ext_wdvv_check(series)
    tracemalloc.start()
    try:
        ext_wdvv_check(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
