"""Formal tensor series in two alphabets and the seven flatness conditions.

A series lives in the tensor algebra on letters t^0 .. t^{n-1} and
s^0 .. s^{m-1}; a monomial is an ordered t-word followed by an ordered
s-word, and the series is truncated at a fixed total word length.
Derivatives delete letters: one letter in every way, or, for the
cyclic triple s-derivative, three letters of each cyclic rotation of the
s-word that starts with the first of them.  Two monomials are
equivalent when their words agree as multisets; the projection onto
classes is multiplicative, with the multiset union as the class
product, so the seven conditions are evaluated on classes.

Conditions, stated on the class projections with Fa and Fb the inverse
quadratic blocks:

1. coefficients are invariant under permutations of the t-word;
2. both quadratic blocks are invertible;
3. t-associativity: sum_pq T3_ijp Fa^pq T3_qkl is symmetric in i <-> k;
4. s-associativity: sum_pq S3_ijp Fb^pq S3_qkl equals
   sum_pq S3_lip Fb^pq S3_qjk;
5. centrality: sum_pq M2_kp Fb^pq S3_qij is symmetric in i <-> j;
6. transfer compatibility: sum_pq M2_pk Fa^pq T3_qij equals
   sum M2_ip Fb^pq S3_qkr Fb^rl M2_jl;
7. trace identity: sum_pq M2_pu Fa^pq M2_qv equals
   sum S3_upr Fb^rl Fb^pq S3_lvq;

with T3 the triple t-derivative, S3 the cyclic s-derivative, and M2 the
mixed second derivative.  Each condition is asserted on classes whose
degree is at most the window, truncation - 4, the largest degree the
truncated data determines exactly.

The s-letters that share an s-word form an s-block (one quaternion block
per critical point of an assembled series; Moore-Segal, hep-th/0609042).
S3 and the boundary Gram vanish between blocks, so both are kept per
block, stacked by block size.

The check runs in two parts: a layout of integer index arrays read off
the key list alone (_layout), and one numeric pass over the coefficients
in key order (_conditions), where exact zeros change nothing.
ext_wdvv_check builds the layout of its series on every call;
verify_bundle, and the CLI's ext-wdvv on a model, check the assembled
coefficients on the one layout cached per (n, t_degree, boundary
blocks).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations
from math import comb

import numpy as np

from .polycore import EQ_TOL
from .frobenius import (VerificationReport, _json_int, _worst, complex_to_json, json_to_complex,
                        nondegeneracy_margin)

__all__ = [
    "TensorSeries",
    "class_basis",
    "ext_wdvv_check",
    "series_to_dict",
    "series_from_dict",
]


@dataclass
class TensorSeries:
    """Truncated series with ordered (t-word, s-word) monomials."""

    n: int
    m: int
    truncation: int
    terms: dict = field(default_factory=dict)

    def add_term(self, tword, sword, coeff):
        if len(tword) + len(sword) > self.truncation:
            return
        key = (tuple(tword), tuple(sword))
        value = self.terms.get(key, 0.0) + coeff
        if value == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = value

    def coefficient(self, tword, sword):
        return self.terms.get((tuple(tword), tuple(sword)), 0.0)

    def copy(self):
        return TensorSeries(self.n, self.m, self.truncation, dict(self.terms))


def _by_shape(keys):
    """The positions of the keys by word-length shape (t-length,
    s-length), and the array of the words t-word + s-word, one row each."""
    groups = {}
    for pos, (tw, sw) in enumerate(keys):
        groups.setdefault((len(tw), len(sw)), []).append((pos,) + tw + sw)
    rows = {shape: np.array(g, dtype=np.intp) for shape, g in groups.items()}
    return {shape: (r[:, 0], r[:, 1:]) for shape, r in rows.items()}


def _symmetry_groups(keys):
    """The t-permutation groups of condition 1 as key positions, one array
    per group size, ``len(keys)`` where an ordering is not a key."""
    where = {key: pos for pos, key in enumerate(keys)}
    rows = {}
    for tkey, sw in dict.fromkeys((tuple(sorted(tw)), sw) for tw, sw in keys if len(tw) >= 2):
        row = [where.get((w, sw), len(keys)) for w in set(permutations(tkey))]
        rows.setdefault(len(row), []).append(row)
    return tuple(np.array(r, dtype=np.intp) for r in rows.values())


def _condition_one(groups, c):
    """Deviations of each coefficient from its t-permutation mean, one
    array per group size."""
    # offsets from one entry are exact where entries are equal, so an
    # exactly symmetric group reads 0 at any magnitude of its entries
    offsets = [values - values[:, :1] for values in (c[g] for g in groups)]
    return [x - x.mean(axis=1, keepdims=True) for x in offsets]


def class_basis(n, m, window):
    """Classes of degree at most ``window`` and their product pair list.

    Returns ``(index, pairs)``.  ``index`` maps each class, a pair of
    sorted t- and s-words, to its position on the class axis;
    ``pairs[c]`` lists the position pairs (a, b) whose multiset union
    is class c.  A product that leaves the window is in no list.  The
    classes run in the colex order of their words (see _colex).
    """
    words = sorted(combinations_with_replacement(range(n + m + 1), window), key=lambda w: w[::-1])
    index = {(tuple(x for x in w if x < n), tuple(x - n for x in w if n <= x < n + m)): c
             for c, w in enumerate(words)}
    words = np.array(words, dtype=np.intp).reshape(len(words), window)
    degree = (words < n + m).sum(axis=1)
    a, b = np.nonzero(degree[:, None] + degree <= window)
    union = np.sort(np.concatenate([words[a], words[b]], axis=1), axis=1)[:, :window]
    pairs = [[] for _ in index]
    for x, y, c in zip(a.tolist(), b.tolist(), _colex(union, n + m + 1).tolist()):
        pairs[c].append((x, y))
    return index, pairs


def _colex(words, letters):
    """Colex rank sum_i C(x_i + i, i + 1) of each sorted word, over
    ``letters`` letters, on the last axis.  A class of degree at most the
    window, as the sorted word of its t-letters, its s-letters + n and the
    pad n + m up to the window length, sits at this rank in class_basis."""
    window = words.shape[-1]
    binom = np.array([[comb(x + i, i + 1) for i in range(window)] for x in range(letters)],
                     dtype=np.intp).reshape(letters, window)
    return binom[words, np.arange(window)].sum(axis=-1)


def _s_blocks(shapes, m):
    """The s-blocks: connected components of the s-letters that share an
    s-word, as one (g, d) letter array per block size d."""
    edges = [(np.repeat(w[:, lt], ls - 1), w[:, lt + 1:].ravel())
             for (lt, ls), (_, w) in shapes.items() if ls > 1]
    u, v = (np.concatenate([e[k] for e in edges] + [e[1 - k] for e in edges] + [np.zeros(0, int)])
            for k in (0, 1))
    label = np.arange(m)
    while True:  # every letter takes the least label along its words
        low = label.copy()
        np.minimum.at(low, u, label[v])
        if (low[low] == label).all():
            break
        label = low[low]
    size, order = np.bincount(label)[label], np.argsort(label, kind="stable")
    return [order[size[order] == d].reshape(-1, d) for d in dict.fromkeys(size[order].tolist())]


def _picked(words, at, kt, picks, position):
    """Letters at each pick of positions in each word, the class of the
    letters left over (kt of them t-letters) and the key position, one
    row per (word, pick)."""
    picks = np.array(list(picks), dtype=np.intp)
    rest = np.array([[x for x in range(words.shape[1]) if x not in p] for p in picks.tolist()],
                    dtype=np.intp).reshape(len(picks), -1)
    left = words[:, rest]
    cls = position(np.sort(left[..., :kt], axis=-1), np.sort(left[..., kt:], axis=-1))
    letters = words[:, picks].reshape(-1, picks.shape[1]).T
    return letters, cls.ravel(), np.repeat(at, len(picks))


_Layout = namedtuple("_Layout", "n m window size groups pairs scatter blocks starts")


def _layout(n, m, truncation, keys):
    """What the seven conditions read off a list of (t-word, s-word) keys,
    all integers: the alphabet sizes, the window, its class count, the
    condition-1 groups, the class pairs (a, b, c) as rows, the scatter
    (flat slot, key position) of _scattered, the s-blocks and the flat
    starts of their cubes, of the two quadratic blocks and of the end."""
    shapes = _by_shape(keys)
    window = truncation - 4
    index, pairs = class_basis(n, m, window) if window >= 0 else ({}, [])
    size = len(index)
    pairs = np.array([(a, b, c) for c, ab in enumerate(pairs) for a, b in ab],
                     dtype=np.intp).reshape(-1, 3).T

    def position(t, s):
        pad = np.full(t.shape[:-1] + (window - t.shape[-1] - s.shape[-1],), n + m)
        return _colex(np.concatenate([t, s + n, pad], axis=-1), n + m + 1)
    blocks = _s_blocks(shapes, m)
    # per s-letter: the flat start of its block's cube, the class stride
    # of its stack, its place in the block and the block size
    start, stride, place, dim = (np.zeros(m, dtype=np.intp) for _ in range(4))
    starts = [size * (n**3 + n * m)]
    for letters in blocks:
        g, d = letters.shape
        start[letters], stride[letters] = starts[-1] + d**3 * np.arange(g)[:, None], g * d**3
        place[letters], dim[letters] = np.arange(d), d
        starts.append(starts[-1] + size * g * d**3)
    starts += [starts[-1] + n * n, starts[-1] + n * n + m * m]
    parts = []
    for (lt, ls), (at, words) in shapes.items():
        if (lt, ls) in ((2, 0), (0, 2)):  # F_xy + F_yx at (x, y)
            x, y = words.T
            base, side = starts[-3 + ls // 2], n if lt else m
            parts += [(base + x * side + y, at), (base + y * side + x, at)]
        if lt >= 3 and lt + ls - 3 <= window:
            (i, j, p), c, v = _picked(words, at, lt - 3, permutations(range(lt), 3), position)
            parts.append((((c * n + i) * n + j) * n + p, v))
        if lt and ls and lt + ls - 2 <= window:
            (k, p), c, v = _picked(words, at, lt - 1,
                                   [(x, lt + y) for x in range(lt) for y in range(ls)], position)
            parts.append((size * n**3 + (c * n + k) * m + p, v))
        if ls >= 3 and lt + ls - 3 <= window:
            # the cyclic rotations of the s-word, as the cyclic derivative reads them
            picks = [tuple(lt + (first + d) % ls for d in (0, p, q))
                     for first in range(ls) for p, q in combinations(range(1, ls), 2)]
            (i, j, r), c, v = _picked(words, at, lt, picks, position)
            d = dim[i]
            parts.append((start[i] + c * stride[i] + (place[i] * d + place[j]) * d + place[r], v))
    scatter = np.concatenate([np.array(p, dtype=np.intp) for p in parts]
                             + [np.zeros((2, 0), np.intp)], axis=1)
    return _Layout(n, m, window, size, _symmetry_groups(keys), pairs, scatter, tuple(blocks),
                   np.array(starts, dtype=np.intp))


def _scattered(layout, c):
    """T3, S3 and M2 with a leading class axis, then F_xy + F_yx over the
    t- and the s-letters, in one gather from ``c`` and one scatter.

    T3[:, i, j, p] is the class projection of the triple t-derivative in
    the letters i, j, p, S3 that of the cyclic triple s-derivative and
    M2[:, k, p] that of the mixed derivative in t^k and s^p.  S3 vanishes
    unless i, j and r share an s-block, so it is a list of (letters,
    cubes), one per block size as in FiniteAlgebra.stacks, with cubes
    (classes, g, d, d, d) on the (g, d) letters."""
    n, m, size, starts = layout.n, layout.m, layout.size, layout.starts
    at, values = layout.scatter[0], c[layout.scatter[1]]
    flat = np.empty(starts[-1], dtype=complex)
    flat.real, flat.imag = (np.bincount(at, part, len(flat)) for part in (values.real, values.imag))
    cubes = [(letters, flat[a:b].reshape((size,) + letters.shape + letters.shape[1:] * 2))
             for letters, a, b in zip(layout.blocks, starts[:-3], starts[1:-2])]
    return (flat[:size * n**3].reshape(size, n, n, n), cubes,
            flat[size * n**3:starts[0]].reshape(size, n, m),
            flat[starts[-3]:starts[-2]].reshape(n, n), flat[starts[-2]:].reshape(m, m))


def _alive(z):
    """Per class slice of z (class axis first): 0 where it is all exact
    zeros, NaN where it holds a NaN or inf, else 1."""
    total = np.abs(z).reshape(len(z), -1).sum(axis=1)
    return (total != 0) + (total - total)


def _class_sum(spec, x, live_x, y, live_y, pairs):
    """Class product of two class-valued arrays, class axis first, with
    their _alive flags: one einsum ``spec`` over the class pairs (a, b, c),
    pair axis first, each summed into its class c.  Pairs whose flags
    multiply to 0, an all-zero slice against a finite one, only add exact
    zeros and are skipped."""
    a, b, c = pairs[:, live_x[pairs[0]] * live_y[pairs[1]] != 0]
    terms = np.einsum(spec, x[a], y[b])
    out = np.zeros((len(x),) + terms.shape[1:], dtype=complex)
    np.add.at(out, c, terms)
    return out


def ext_wdvv_check(series, tol=EQ_TOL):
    """Evaluate the seven conditions on a truncated potential series.

    Residuals condition_1 and condition_3 .. condition_7 are worst
    class-coefficient defects on the exactly determined window (classes
    of degree at most truncation - 4; none at truncation 3); margins
    condition_2_t and condition_2_s are the singular value ratios of the
    quadratic blocks.  Each call builds the layout of the series' own
    keys.  Raises ValueError("no inverse Gram") when a quadratic block
    cannot be inverted.
    """
    layout = _layout(series.n, series.m, series.truncation, list(series.terms))
    return _conditions(layout, np.array(list(series.terms.values()), dtype=complex), tol)


def _conditions(layout, coeffs, tol=EQ_TOL):
    """ext_wdvv_check as one numeric pass over ``coeffs``, in the key order
    of ``layout``.  Conditions 4 and 5, Fb and the boundary factors of 6
    and 7 run per s-block; the right sides of 6 and 7 are scattered into
    their dense places, where they meet the left sides over all letters."""
    n, m, pairs = layout.n, layout.m, layout.pairs
    # the zero read by a missing ordering in a condition-1 group
    c = np.append(np.asarray(coeffs, dtype=complex), 0.0)

    rep = VerificationReport(subject="ext_wdvv", tol=tol)
    rep.residuals["condition_1"] = _worst(_condition_one(layout.groups, c))

    t3, s3, m2, ga, gb = _scattered(layout, c)
    gb = 0.5 * gb
    for name, gram in (("condition_2_t", ga), ("condition_2_s", gb))[:1 + (m > 0)]:
        rep.margins[name] = nondegeneracy_margin(gram)
        if rep.margins[name] <= tol:
            raise ValueError("no inverse Gram")
    fa = np.linalg.inv(ga)

    if layout.window < 0:
        rep.residuals.update(("condition_%d" % k, 0.0) for k in range(3, 8))
        return rep

    live_t, live_m = _alive(t3), _alive(m2)
    # a NaN or inf in an inverse Gram reaches every slice it multiplies
    finite_a = 1.0 if np.isfinite(fa).all() else np.nan
    m2fa = np.einsum("apk,pq->akq", m2, fa)
    lhs3 = _class_sum("aijq,aqkl->aijkl", np.einsum("aijp,pq->aijq", t3, fa), live_t * finite_a,
                      t3, live_t, pairs)
    defects = {3: [lhs3 - np.einsum("akjil->aijkl", lhs3)], 4: [], 5: []}
    rhs6 = np.zeros((layout.size, m, n, n), dtype=complex)
    rhs7 = np.zeros((layout.size, m, m), dtype=complex)
    for letters, s3b in s3:
        fb = np.linalg.inv(gb[letters[:, :, None], letters[:, None, :]])
        finite_b = 1.0 if np.isfinite(fb).all() else np.nan
        m2b = m2[:, :, letters]
        live_s, live_mb = _alive(s3b), _alive(m2b) * finite_b
        lhs4 = _class_sum("agijq,agqkl->agijkl", np.einsum("agijp,gpq->agijq", s3b, fb),
                          live_s * finite_b, s3b, live_s, pairs)
        defects[4].append(lhs4 - np.einsum("aglijk->agijkl", lhs4))
        # M2 Fb S3: the left side of condition 5 and the inner factor of 6
        inner = _class_sum("agiq,agqkr->agikr", np.einsum("akgp,gpq->agkq", m2b, fb), live_mb,
                           s3b, live_s, pairs)
        defects[5].append(inner - inner.swapaxes(3, 4))
        rhs6[:, letters] = _class_sum("agikr,agjr->agkij", inner, _alive(inner),
                                      np.einsum("grl,ajgl->agjr", fb, m2b), live_mb, pairs)
        s3fbfb = np.einsum("agupl,gpq->agulq", np.einsum("agupr,grl->agupl", s3b, fb), fb)
        rhs7[:, letters[:, :, None], letters[:, None, :]] = _class_sum(
            "agulq,aglvq->aguv", s3fbfb, live_s * finite_b, s3b, live_s, pairs)
    defects[6] = [_class_sum("akq,aqij->akij", m2fa, live_m * finite_a, t3, live_t, pairs) - rhs6]
    defects[7] = [_class_sum("auq,aqv->auv", m2fa, live_m * finite_a, m2, live_m, pairs) - rhs7]
    rep.residuals.update(("condition_%d" % k, _worst(d)) for k, d in defects.items())
    return rep


def series_to_dict(series):
    """JSON payload; word letters are one based in the file format."""
    terms = [{"t": [i + 1 for i in tw], "s": [j + 1 for j in sw], "coeff": complex_to_json(c)}
             for (tw, sw), c in sorted(series.terms.items())]
    return {"n": series.n, "m": series.m, "truncation": series.truncation, "terms": terms}


def series_from_dict(data):
    """Series from its JSON payload; refuses sizes and letters that are not
    integers, negative sizes, non-finite coefficients and what add_term
    would drop."""
    n, m, truncation = (_json_int(data[name], name, 0) for name in ("n", "m", "truncation"))
    out = TensorSeries(n, m, truncation)
    for row in data["terms"]:
        coeff = complex(json_to_complex(row["coeff"]))
        tw = tuple(_json_int(i, "t letter", 1) - 1 for i in row["t"])
        sw = tuple(_json_int(j, "s letter", 1) - 1 for j in row["s"])
        if any(i >= n for i in tw) or any(j >= m for j in sw):
            raise ValueError("series letter out of range")
        if len(tw) + len(sw) > out.truncation:
            raise ValueError("term longer than truncation")
        if not np.isfinite(coeff):
            raise ValueError("non-finite coefficient %r" % coeff)
        out.add_term(tw, sw, coeff)
    return out
