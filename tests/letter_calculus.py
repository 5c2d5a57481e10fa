"""The letter calculus of tensor series, term by term: the definitional
reference for the layout route of ``lgcardy.tensor_series``.

``d_t`` and ``d_s`` delete one letter in every way, ``d_sss`` is the cyclic
triple s-derivative, ``project`` sums each class of equal word multisets,
and ``encode_symmetric`` spreads a classical polynomial over its ordered
words.  ``class_tensors`` reads T3, S3 and M2 off the package's layout, for
the tests to compare against these definitions.  Pytest does not collect
this module; the tests import it.
"""

from itertools import combinations, permutations

import numpy as np

from lgcardy.tensor_series import TensorSeries, _layout, _scattered


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
        for start in range(len(sw)):
            rot = sw[start:] + sw[:start]
            for p, q in combinations(range(1, len(sw)), 2):
                if (rot[0], rot[p], rot[q]) == (i, j, r):
                    out.add_term(tw, rot[1:p] + rot[p + 1 : q] + rot[q + 1 :], c)
    return out


def project(series):
    """Sum coefficients over monomials with equal word multisets, into
    one sorted (t-word, s-word) pair per class."""
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
        word = [letter for letter, mult in enumerate(exps) for _ in range(mult)]
        if len(word) > truncation:
            continue
        distinct = set(permutations(word))
        share = coeff / len(distinct)
        for w in distinct:
            out.add_term(w, (), share)
    return out


def class_tensors(series, index):
    """T3, S3 and M2 with a leading class axis, in one pass over the terms.

    T3[:, i, j, p] is the class projection of d_t(d_t(d_t(F, p), j), i),
    S3[:, i, j, r] that of d_sss(F, i, j, r) and M2[:, k, p] that of
    d_t(d_s(F, p), k), on the classes of an ``index`` from class_basis.
    S3 vanishes unless i, j and r share an s-block, so it is a list of
    (letters, cubes), one per block size as in FiniteAlgebra.stacks, with
    cubes (classes, g, d, d, d) on the (g, d) letters.
    """
    window = max((len(t) + len(s) for t, s in index), default=-1)
    return _scattered(_layout(series.n, series.m, window + 4, list(series.terms)),
                      np.array(list(series.terms.values()), dtype=complex))[:3]
