"""Formal tensor series in two alphabets and the seven flatness conditions.

A series lives in the tensor algebra on letters t^0 .. t^{n-1} and
s^0 .. s^{m-1}; a monomial is an ordered t-word followed by an ordered
s-word, and the series is truncated at a fixed total word length.
Derivatives delete letters: d_t and d_s remove a single occurrence,
while the cyclic third derivative d_sss removes an ordered triple
(i, j, r) from every cyclic rotation of the s-word that starts at an
occurrence of i.  Two monomials are equivalent when their words agree
as multisets; projecting onto equivalence classes is multiplicative,
with the multiset union of words as the class product, so the seven
quadratic conditions on a potential series are evaluated in the class
algebra.

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

A class-valued tensor is a dense array whose trailing axis runs over
the class basis: the (sorted t-word, sorted s-word) pairs of degree at
most the window.  The class product is a precomputed pair list that
sends each pair of basis classes to their multiset union and drops the
pairs whose union leaves the window.  T3, S3 and M2 are built in one
pass over the series terms, and conditions 3-7 are the einsums above
with the class product folded in over the pair list.  At window 0 the
basis is the single empty class and the conditions are plain tensor
contractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np

from .polycore import ToleranceConfig
from .frobenius import VerificationReport, nondegeneracy_margin

__all__ = [
    "TensorSeries",
    "d_t",
    "d_s",
    "d_sss",
    "project",
    "class_basis",
    "class_tensors",
    "encode_symmetric",
    "quadratic_t_block",
    "quadratic_s_block",
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

    def __add__(self, other):
        out = self.copy()
        for (tw, sw), c in other.terms.items():
            out.add_term(tw, sw, c)
        return out


def d_t(series, i):
    """Delete one occurrence of t^i from every monomial, in every way."""
    out = TensorSeries(series.n, series.m, series.truncation)
    for (tw, sw), c in series.terms.items():
        for pos, letter in enumerate(tw):
            if letter == i:
                out.add_term(tw[:pos] + tw[pos + 1 :], sw, c)
    return out


def d_s(series, j):
    """Delete one occurrence of s^j from every monomial, in every way."""
    out = TensorSeries(series.n, series.m, series.truncation)
    for (tw, sw), c in series.terms.items():
        for pos, letter in enumerate(sw):
            if letter == j:
                out.add_term(tw, sw[:pos] + sw[pos + 1 :], c)
    return out


def d_sss(series, i, j, r):
    """Cyclic triple s-derivative.

    For every monomial and every cyclic rotation of its s-word that
    begins with the letter i, each ordered pair of later positions
    carrying j then r contributes the rotated word with those three
    letters removed.
    """
    out = TensorSeries(series.n, series.m, series.truncation)
    for (tw, sw), c in series.terms.items():
        ell = len(sw)
        if ell < 3:
            continue
        for start in range(ell):
            rot = sw[start:] + sw[:start]
            if rot[0] != i:
                continue
            for p in range(1, ell):
                if rot[p] != j:
                    continue
                for q in range(p + 1, ell):
                    if rot[q] != r:
                        continue
                    rest = rot[1:p] + rot[p + 1 : q] + rot[q + 1 :]
                    out.add_term(tw, rest, c)
    return out


def project(series):
    """Sum coefficients over monomials with equal word multisets.

    The result holds one sorted (t-word, s-word) pair per class.
    """
    out = TensorSeries(series.n, series.m, series.truncation)
    for (tw, sw), c in series.terms.items():
        out.add_term(tuple(sorted(tw)), tuple(sorted(sw)), c)
    return out


def encode_symmetric(exponent_terms, n, m, truncation):
    """Spread a classical polynomial over ordered words.

    ``exponent_terms`` maps exponent tuples (length n) to coefficients.
    Each monomial is distributed evenly over its distinct orderings, so
    d_t of the encoding equals the encoding of the partial derivative.
    """
    out = TensorSeries(n, m, truncation)
    for exps, coeff in exponent_terms.items():
        word = []
        for letter, mult in enumerate(exps):
            word.extend([letter] * mult)
        if len(word) > truncation:
            continue
        distinct = set(permutations(word))
        share = coeff / len(distinct)
        for w in distinct:
            out.add_term(w, (), share)
    return out


def _quadratic_block(series, size, side):
    """F_xy + F_yx at (x, y), read off in one pass over the degree-2 terms
    whose two letters both sit in word ``side`` (0: t-word, 1: s-word)."""
    out = np.zeros((size, size), dtype=complex)
    for words, c in series.terms.items():
        if len(words[side]) == 2 and not words[1 - side]:
            x, y = words[side]
            out[x, y] += c
            out[y, x] += c
    return out


def quadratic_t_block(series):
    """Matrix of second t-derivatives of the constant part,
    F[(i, j), ()] + F[(j, i), ()]."""
    return _quadratic_block(series, series.n, 0)


def quadratic_s_block(series):
    """Half the matrix of second s-derivatives of the constant part,
    (F[(), (u, v)] + F[(), (v, u)]) / 2."""
    return 0.5 * _quadratic_block(series, series.m, 1)


def _condition_one(series):
    """Worst deviation of a coefficient from its t-permutation mean."""
    groups = {}
    for (tw, sw), c in series.terms.items():
        if len(tw) < 2:
            continue
        groups.setdefault((tuple(sorted(tw)), sw), []).append((tw, c))
    worst = 0.0
    for (tkey, sw), entries in groups.items():
        words = set(permutations(tkey))
        lookup = dict(entries)
        values = np.array([lookup.get(w, 0.0) for w in words], dtype=complex)
        # offsets from one entry are exact where entries are equal, so an
        # exactly symmetric group reads 0 at any magnitude of its entries
        offsets = values - values[0]
        worst = max(worst, float(np.max(np.abs(offsets - offsets.mean()))))
    return worst


def _without(word, positions):
    """Sorted letters of ``word`` outside ``positions``."""
    return tuple(sorted(w for q, w in enumerate(word) if q not in positions))


def class_basis(n, m, window):
    """Classes of degree at most ``window`` and their product pair list.

    Returns ``(index, pairs)``.  ``index`` maps each class, a pair of
    sorted t- and s-words, to its position on the class axis;
    ``pairs[c]`` lists the position pairs (a, b) whose multiset union
    is class c.  A product that leaves the window is in no list.
    """
    classes = [
        (tkey, skey)
        for degree in range(window + 1)
        for k in range(degree + 1)
        for tkey in combinations_with_replacement(range(n), k)
        for skey in combinations_with_replacement(range(m), degree - k)
    ]
    index = {cls: c for c, cls in enumerate(classes)}
    pairs = [[] for _ in classes]
    for a, (ta, sa) in enumerate(classes):
        for b, (tb, sb) in enumerate(classes):
            c = index.get((tuple(sorted(ta + tb)), tuple(sorted(sa + sb))))
            if c is not None:
                pairs[c].append((a, b))
    return index, pairs


def class_tensors(series, index):
    """T3, S3 and M2 with a trailing class axis, in one pass over the terms.

    T3[i, j, p] is the class projection of d_t(d_t(d_t(F, p), j), i),
    S3[i, j, r] that of d_sss(F, i, j, r) and M2[k, p] that of
    d_t(d_s(F, p), k), each kept on the classes of ``index``.  Every
    derivative deletes letters at distinct positions, and S3 runs over
    the cyclic rotations of the s-word as d_sss does.
    """
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
    """Largest modulus over per-class defect arrays, which may be empty."""
    return max(float(np.max(np.abs(d), initial=0.0)) for d in defects)


def ext_wdvv_check(series, n=None, m=None, tol=None):
    """Evaluate the seven conditions on a truncated potential series.

    Residuals condition_1 and condition_3 .. condition_7 are worst
    class-coefficient defects on the exactly determined window (classes
    of degree at most truncation - 4); margins condition_2_t and
    condition_2_s are the singular value ratios of the quadratic blocks.
    T3, S3 and M2 are class-valued arrays over the class basis of the
    window, conditions 3-7 are the einsums of the module docstring with
    the class product taken over the pair list, and each defect is
    reduced one output class at a time.  At window 0 the basis is the
    single empty class.  A truncation of 3 leaves an empty window, so
    conditions 3-7 hold vacuously and only condition 1 and the margins
    carry content.  Raises ValueError("no inverse Gram") when a
    quadratic block cannot be inverted.
    """
    tol = tol or ToleranceConfig()
    if n is not None and n != series.n:
        raise ValueError("series has %d t-letters, expected %d" % (series.n, n))
    if m is not None and m != series.m:
        raise ValueError("series has %d s-letters, expected %d" % (series.m, m))
    n, m = series.n, series.m
    window = series.truncation - 4

    rep = VerificationReport(subject="ext_wdvv", tol=tol.eq_tol)
    rep.residuals["condition_1"] = _condition_one(series)

    ga = quadratic_t_block(series)
    margin_t = nondegeneracy_margin(ga)
    rep.margins["condition_2_t"] = margin_t
    if margin_t <= tol.eq_tol:
        raise ValueError("no inverse Gram")
    fa = np.linalg.inv(ga)
    fb = np.zeros((0, 0))
    if m > 0:
        gb = quadratic_s_block(series)
        margin_s = nondegeneracy_margin(gb)
        rep.margins["condition_2_s"] = margin_s
        if margin_s <= tol.eq_tol:
            raise ValueError("no inverse Gram")
        fb = np.linalg.inv(gb)

    if window < 0:
        for key in ("condition_3", "condition_4", "condition_5",
                    "condition_6", "condition_7"):
            rep.residuals[key] = 0.0
        return rep

    index, pairs = class_basis(n, m, window)
    t3, s3, m2 = class_tensors(series, index)
    m2fa = np.einsum("pka,pq->kqa", m2, fa)
    m2fb = np.einsum("kpa,pq->kqa", m2, fb)

    lhs3 = _class_product(
        "ijq,qkl->ijkl", np.einsum("ijpa,pq->ijqa", t3, fa), t3, pairs
    )
    rep.residuals["condition_3"] = _worst(v - np.einsum("kjil->ijkl", v) for v in lhs3)
    lhs4 = _class_product(
        "ijq,qkl->ijkl", np.einsum("ijpa,pq->ijqa", s3, fb), s3, pairs
    )
    rep.residuals["condition_4"] = _worst(v - np.einsum("lijk->ijkl", v) for v in lhs4)
    lhs5 = _class_product("kq,qij->kij", m2fb, s3, pairs)
    rep.residuals["condition_5"] = _worst(v - np.einsum("kji->kij", v) for v in lhs5)
    # the inner factor M2 Fb S3 of condition 6, formed once
    inner = np.stack(list(_class_product("iq,qkr->ikr", m2fb, s3, pairs)), axis=-1)
    lhs6 = _class_product("kq,qij->kij", m2fa, t3, pairs)
    rhs6 = _class_product(
        "ikr,jr->kij", inner, np.einsum("rl,jla->jra", fb, m2), pairs
    )
    rep.residuals["condition_6"] = _worst(l - r for l, r in zip(lhs6, rhs6))
    s3fbfb = np.einsum("upla,pq->ulqa", np.einsum("upra,rl->upla", s3, fb), fb)
    lhs7 = _class_product("uq,qv->uv", m2fa, m2, pairs)
    rhs7 = _class_product("ulq,lvq->uv", s3fbfb, s3, pairs)
    rep.residuals["condition_7"] = _worst(l - r for l, r in zip(lhs7, rhs7))
    return rep


def series_to_dict(series):
    """JSON payload; word letters are one based in the file format."""
    terms = []
    for (tw, sw), c in sorted(series.terms.items()):
        c = complex(c)
        terms.append({
            "t": [i + 1 for i in tw],
            "s": [j + 1 for j in sw],
            "coeff": [c.real, c.imag],
        })
    return {
        "n": series.n,
        "m": series.m,
        "truncation": series.truncation,
        "terms": terms,
    }


def series_from_dict(data):
    """Series from its JSON payload; refuses what add_term would drop."""
    n = int(data["n"])
    m = int(data["m"])
    out = TensorSeries(n, m, int(data["truncation"]))
    if out.truncation < 0:
        raise ValueError("negative truncation")
    for row in data["terms"]:
        re, im = row["coeff"]
        tw = tuple(int(i) - 1 for i in row["t"])
        sw = tuple(int(j) - 1 for j in row["s"])
        if any(i < 0 or i >= n for i in tw) or any(j < 0 or j >= m for j in sw):
            raise ValueError("series letter out of range")
        if len(tw) + len(sw) > out.truncation:
            raise ValueError("term longer than truncation")
        out.add_term(tw, sw, complex(re, im))
    return out
