"""Tests for the formal tensor series and the seven-condition checker."""

import numpy as np
import pytest

from lgcardy.frobenius import _worst, quaternion_pair
from lgcardy.tensor_series import (
    TensorSeries,
    _condition_one,
    _layout,
    _scattered,
    class_basis,
    ext_wdvv_check,
    series_from_dict,
    series_to_dict,
)

from letter_calculus import class_tensors, d_s, d_sss, d_t, encode_symmetric, project
from test_frobenius import dense


def quadratic_blocks(f):
    """The quadratic blocks as ext_wdvv_check reads them: the second
    t-derivatives and half the second s-derivatives of the constant part."""
    qt, qs = _scattered(_layout(f.n, f.m, f.truncation, list(f.terms)), _coefficients(f))[3:]
    return qt, 0.5 * qs


def _coefficients(f):
    """The coefficients of f in key order, and the zero a missing key reads."""
    return np.array(list(f.terms.values()) + [0.0], dtype=complex)


def test_add_and_truncation():
    f = TensorSeries(2, 1, 3)
    f.add_term((0, 1), (0,), 2.0)
    f.add_term((0, 1, 1), (0,), 5.0)  # length 4, dropped
    assert f.coefficient((0, 1), (0,)) == 2.0
    assert f.coefficient((0, 1, 1), (0,)) == 0.0
    f.add_term((0, 1), (0,), -2.0)
    assert ((0, 1), (0,)) not in f.terms


def test_d_t_counts_occurrences():
    f = TensorSeries(2, 0, 4)
    f.add_term((0, 1, 0), (), 2.0)
    g = d_t(f, 0)
    assert g.coefficient((1, 0), ()) == 2.0
    assert g.coefficient((0, 1), ()) == 2.0
    assert d_t(g, 1).coefficient((0,), ()) == 4.0


def test_d_s_single_letter():
    f = TensorSeries(1, 3, 4)
    f.add_term((0,), (2, 1), 3.0)
    g = d_s(f, 1)
    assert g.coefficient((0,), (2,)) == 3.0
    assert d_s(f, 0).terms == {}


def test_d_sss_hand_enumerated():
    f = TensorSeries(0, 3, 4)
    f.add_term((), (0, 1, 2), 1.0)
    out = d_sss(f, 0, 1, 2)
    assert out.terms == {((), ()): 1.0}
    # swapped tail letters never match the single rotation
    assert d_sss(f, 0, 2, 1).terms == {}
    # the rule only sees the cyclic word
    assert d_sss(f, 1, 2, 0).terms == {((), ()): 1.0}

    g = TensorSeries(0, 1, 4)
    g.add_term((), (0, 0, 0), 1.0)
    assert d_sss(g, 0, 0, 0).terms == {((), ()): 3.0}

    h = TensorSeries(0, 3, 4)
    h.add_term((), (0, 1, 0, 2), 1.0)
    out = d_sss(h, 0, 1, 2)
    assert out.terms == {((), (0,)): 1.0}


def test_project_collects_classes():
    f = TensorSeries(2, 1, 4)
    f.add_term((0, 1), (0,), 1.5)
    f.add_term((1, 0), (0,), 2.5)
    cls = project(f)
    assert cls.terms == {((0, 1), (0,)): 4.0}


def test_class_product_is_multiset_union():
    index, pairs = class_basis(2, 1, 3)
    classes = {c: cls for cls, c in index.items()}
    assert len(index) == 1 + 3 + 6 + 10
    for c, ab in enumerate(pairs):
        for a, b in ab:
            (ta, sa), (tb, sb) = classes[a], classes[b]
            assert (tuple(sorted(ta + tb)), tuple(sorted(sa + sb))) == classes[c]
    # every product inside the window is listed once
    inside = sum(
        len(ta) + len(sa) + len(tb) + len(sb) <= 3
        for ta, sa in index for tb, sb in index
    )
    assert sum(len(ab) for ab in pairs) == inside
    a, b = index[((0,), ())], index[((1,), (0,))]
    c = index[((0, 1), (0,))]
    assert (a, b) in pairs[c] and (b, a) in pairs[c]
    # products beyond the window are dropped
    assert not any((c, b) in ab for ab in pairs)


def test_encode_symmetric_commutes_with_derivative():
    rng = np.random.default_rng(7)
    terms = {}
    for exps in [(3, 0), (2, 1), (1, 2), (0, 4), (2, 2)]:
        terms[exps] = complex(rng.standard_normal(), rng.standard_normal())
    enc = encode_symmetric(terms, 2, 0, 6)
    for axis in range(2):
        deriv_terms = {}
        for exps, c in terms.items():
            if exps[axis] == 0:
                continue
            new = list(exps)
            new[axis] -= 1
            deriv_terms[tuple(new)] = c * exps[axis]
        direct = encode_symmetric(deriv_terms, 2, 0, 6)
        chained = d_t(enc, axis)
        keys = set(direct.terms) | set(chained.terms)
        for k in keys:
            assert abs(direct.terms.get(k, 0.0) - chained.terms.get(k, 0.0)) < 1e-12


def test_quadratic_blocks_recover_grams():
    ga = np.array([[0.0, 1.0], [1.0, 0.0]])
    gb = np.diag([2.0, -2.0])
    f = TensorSeries(2, 2, 4)
    for i in range(2):
        for j in range(2):
            f.add_term((i, j), (), 0.5 * ga[i, j])
            f.add_term((), (i, j), gb[i, j])
    qt, qs = quadratic_blocks(f)
    assert np.max(np.abs(qt - ga)) < 1e-14
    assert np.max(np.abs(qs - gb)) < 1e-14


def _quaternion_toy(rho=0.5, tangent=2.0, scale_boundary=1.0):
    """One bulk direction paired with a single quaternion block.

    The boundary data (pairing, transfer row, cubic term) can be scaled
    to mimic a rescaled boundary functional.
    """
    pair = quaternion_pair(rho)
    mu = rho * rho
    ga = mu * tangent**2
    ca = mu * tangent**3
    f = TensorSeries(1, 4, 4)
    f.add_term((0, 0), (), 0.5 * ga)
    f.add_term((0, 0, 0), (), ca / 6.0)
    gb = pair.gram()
    mul = dense(pair.algebra)
    cb = np.einsum("ijq,q->ij", mul, pair.functional)
    cb3 = np.einsum("ijq,qkr,r->ijk", mul, mul, pair.functional)
    for i in range(4):
        for j in range(4):
            f.add_term((), (i, j), scale_boundary * gb[i, j])
            for k in range(4):
                f.add_term((), (i, j, k), scale_boundary * cb3[i, j, k] / 3.0)
    f.add_term((0,), (0,), scale_boundary * 2.0 * rho * tangent)
    assert np.max(np.abs(cb - gb)) < 1e-14
    return f


def test_ext_wdvv_passes_on_quaternion_toy():
    f = _quaternion_toy()
    rep = ext_wdvv_check(f)
    for name in ("condition_1", "condition_3", "condition_4",
                 "condition_5", "condition_6", "condition_7"):
        assert rep.residuals[name] < 1e-12, name
    assert rep.margins["condition_2_t"] > 1e-9
    assert rep.margins["condition_2_s"] > 1e-9
    assert rep.passed


def test_boundary_rescaling_fires_only_the_trace_condition():
    eps = 0.05
    f = _quaternion_toy(scale_boundary=1.0 + eps)
    rep = ext_wdvv_check(f)
    for name in ("condition_1", "condition_3", "condition_4",
                 "condition_5", "condition_6"):
        assert rep.residuals[name] < 1e-12, name
    expected = 4.0 * (2.0 * eps + eps * eps)
    assert rep.residuals["condition_7"] == pytest.approx(expected, abs=1e-9)


def test_condition_one_measures_asymmetry():
    f = TensorSeries(2, 0, 4)
    for i in range(2):
        for j in range(2):
            f.add_term((i, j), (), 0.5 * float(i == j))
    f.add_term((0, 0, 1), (), 0.5)
    f.add_term((0, 1, 0), (), 0.5)
    f.add_term((1, 0, 0), (), 0.2)
    rep = ext_wdvv_check(f)
    assert rep.residuals["condition_1"] == pytest.approx(0.2, abs=1e-12)
    # three equal entries whose floating-point mean is not their value:
    # an exactly symmetric group reads 0 however large its entries
    g = TensorSeries(2, 0, 4)
    for word in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        g.add_term(word, (), 123456789.123)
    assert _worst(_condition_one(_layout(2, 0, 4, list(g.terms)).groups, _coefficients(g))) == 0.0


def test_singular_block_raises():
    f = TensorSeries(1, 0, 4)
    f.add_term((0, 0, 0), (), 1.0)
    with pytest.raises(ValueError, match="no inverse Gram"):
        ext_wdvv_check(f)


def test_truncation_three_is_vacuous():
    f = TensorSeries(1, 0, 3)
    f.add_term((0, 0), (), 0.5)
    f.add_term((0, 0, 0), (), 7.0)
    rep = ext_wdvv_check(f)
    for name in ("condition_3", "condition_4", "condition_5",
                 "condition_6", "condition_7"):
        assert rep.residuals[name] == 0.0
    assert rep.margins["condition_2_t"] > 0.0


def _random_series(n, m, truncation, count, seed):
    rng = np.random.default_rng(seed)
    f = TensorSeries(n, m, truncation)
    for _ in range(count):
        length = rng.integers(2, truncation + 1)
        split = rng.integers(0, length + 1)
        tw = tuple(rng.integers(0, n, split))
        sw = tuple(rng.integers(0, m, length - split))
        f.add_term(tw, sw, complex(rng.standard_normal(), rng.standard_normal()))
    return f


def test_one_pass_tensors_match_derivatives():
    n, m = 2, 3
    for window in (0, 1, 2):
        f = _random_series(n, m, window + 4, 120, seed=window)
        index, _ = class_basis(n, m, window)
        t3, stacks, m2 = class_tensors(f, index)
        s3 = np.zeros((len(index), m, m, m), dtype=complex)
        for letters, cubes in stacks:
            s3[:, letters[:, :, None, None], letters[:, None, :, None],
               letters[:, None, None, :]] = cubes
        reference = []
        for i in range(n):
            for j in range(n):
                for p in range(n):
                    reference.append((t3[:, i, j, p], project(d_t(d_t(d_t(f, p), j), i))))
        for i in range(m):
            for j in range(m):
                for r in range(m):
                    reference.append((s3[:, i, j, r], project(d_sss(f, i, j, r))))
        for k in range(n):
            for p in range(m):
                reference.append((m2[:, k, p], project(d_t(d_s(f, p), k))))
        nonzero = 0
        for dense, cls in reference:
            want = np.array([cls.terms.get(key, 0.0) for key in index])
            assert np.max(np.abs(dense - want)) < 1e-12
            nonzero += np.count_nonzero(want)
        assert nonzero > 0


def test_quadratic_blocks_match_derivative_definition():
    n, m = 3, 4
    for seed in range(3):
        f = _random_series(n, m, 5, 150, seed=40 + seed)
        rng = np.random.default_rng(seed)
        # every ordered quadratic word, so both blocks are asymmetric in F,
        # plus terms of length 0 and 1 that neither block may read
        for i in range(n):
            for j in range(n):
                f.add_term((i, j), (), complex(*rng.standard_normal(2)))
        for u in range(m):
            for v in range(m):
                f.add_term((), (u, v), complex(*rng.standard_normal(2)))
        f.add_term((), (), 1.5)
        f.add_term((1,), (), -0.5)
        f.add_term((), (2,), 0.25j)
        assert f.coefficient((0, 1), ()) != f.coefficient((1, 0), ())
        assert f.coefficient((), (0, 1)) != f.coefficient((), (1, 0))
        want_t = [[d_t(d_t(f, i), j).coefficient((), ()) for j in range(n)] for i in range(n)]
        want_s = [[0.5 * d_s(d_s(f, u), v).coefficient((), ()) for v in range(m)]
                  for u in range(m)]
        qt, qs = quadratic_blocks(f)
        assert np.max(np.abs(qt - np.array(want_t))) < 1e-14
        assert np.max(np.abs(qs - np.array(want_s))) < 1e-14


def test_random_symmetric_cubic_breaks_condition_four():
    f = _quaternion_toy()
    for key in [k for k in f.terms if len(k[1]) == 3]:
        del f.terms[key]
    rng = np.random.default_rng(11)
    raw = rng.standard_normal((4, 4, 4))
    sym = np.zeros((4, 4, 4))
    for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        sym += raw.transpose(perm)
    sym /= 6.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                f.add_term((), (i, j, k), sym[i, j, k] / 3.0)
    rep = ext_wdvv_check(f)
    assert rep.residuals["condition_4"] > 1e-3


def test_bulk_only_series_skips_boundary_conditions():
    f = TensorSeries(1, 0, 4)
    f.add_term((0, 0), (), 0.5)
    f.add_term((0, 0, 0), (), 1.0 / 3.0)
    rep = ext_wdvv_check(f)
    assert rep.residuals["condition_4"] == 0.0
    assert rep.residuals["condition_7"] == 0.0
    assert "condition_2_s" not in rep.margins
    assert rep.passed


def test_ext_wdvv_matches_classical_potential():
    # cubic-plus-quartic bulk potential recentred at a regular point,
    # degree-two part replaced by the constant pairing
    terms = {(2, 1): 0.5, (0, 3): 1.5, (0, 4): -0.375}
    f = encode_symmetric(terms, 2, 0, 5)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    for i in range(2):
        for j in range(2):
            f.add_term((i, j), (), 0.5 * flip[i, j])
    rep = ext_wdvv_check(f)
    assert rep.residuals["condition_1"] < 1e-15
    assert rep.residuals["condition_3"] < 1e-12
    assert rep.passed


def test_ext_wdvv_agrees_with_pointwise_wdvv():
    # a corrupted classical potential: the degree-zero class residual of
    # condition 3 must match the pointwise associativity defect
    from itertools import product as iproduct
    from math import comb

    from lgcardy.moduli import reconstruct_potential, wdvv_check

    pot, fit = reconstruct_potential(3)
    assert fit < 1e-9
    pot.terms[(0, 4, 0)] = pot.terms.get((0, 4, 0), 0.0) + 0.1
    center = np.array([0.3, -1.2, 0.4])
    shifted = {}
    for exps, coeff in pot.terms.items():
        for pick in iproduct(*[range(e + 1) for e in exps]):
            c = coeff
            for e, p, c0 in zip(exps, pick, center):
                c *= comb(e, p) * c0 ** (e - p)
            if sum(pick) >= 3:
                shifted[pick] = shifted.get(pick, 0.0) + c
    f = encode_symmetric(shifted, 3, 0, 4)
    flip = np.fliplr(np.eye(3))
    for i in range(3):
        for j in range(3):
            if flip[i, j]:
                f.add_term((i, j), (), 0.5 * flip[i, j])
    rep = ext_wdvv_check(f)
    point = wdvv_check(pot, [center])
    assert rep.residuals["condition_3"] == pytest.approx(
        point.residuals["associativity"], abs=1e-8
    )
    assert rep.residuals["condition_3"] > 1e-3


def test_series_json_round_trip():
    f = _quaternion_toy()
    data = series_to_dict(f)
    assert data["n"] == 1 and data["m"] == 4
    # letters are one based on disk
    assert all(w >= 1 for row in data["terms"] for w in row["t"] + row["s"])
    back = series_from_dict(data)
    assert back.truncation == f.truncation
    keys = set(f.terms) | set(back.terms)
    for k in keys:
        assert abs(f.terms.get(k, 0.0) - back.terms.get(k, 0.0)) < 1e-15
    data["terms"][0]["s"] = [99]
    with pytest.raises(ValueError, match="letter out of range"):
        series_from_dict(data)
    long_term = {"n": 1, "m": 0, "truncation": 3,
                 "terms": [{"t": [1, 1, 1, 1], "s": [], "coeff": [1.0, 0.0]}]}
    with pytest.raises(ValueError, match="term longer than truncation"):
        series_from_dict(long_term)
    with pytest.raises(ValueError, match="truncation must be an integer of at least 0, got -1"):
        series_from_dict({"n": 1, "m": 0, "truncation": -1, "terms": []})
    for name in ("n", "m"):
        with pytest.raises(ValueError, match="%s must be an integer of at least 0, got -2" % name):
            series_from_dict({"n": 1, "m": 0, "truncation": 4, "terms": [], name: -2})
