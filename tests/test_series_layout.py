"""The series route of ``verify_bundle`` against the public series check.

``verify_bundle`` writes the assembled coefficients densely over the
structural keys of (n, t_degree, boundary blocks), exact zeros included,
and runs the seven conditions on the layout it keeps for that key.
``ext_wdvv_check(assemble_potential(...))`` builds the layout of the
nonzero terms on every call.  Both must give the same rows: bit for bit
at truncation 4, and to 1e-13 max(1, |v|) above it.
"""

import itertools
from math import comb

import numpy as np
import pytest

from lgcardy import bundle as bd
from lgcardy import landau_ginzburg, moduli
from lgcardy import tensor_series as ts
from lgcardy.bundle import CORRUPTIONS, assemble_potential, corrupt_model, verify_bundle
from lgcardy.cli import RunConfig, run
from lgcardy.landau_ginzburg import build_quaternion_model
from lgcardy.moduli import PotentialPoly, _cached_potential, _chart_on
from lgcardy.polycore import DegenerateModelError
from lgcardy.tensor_series import ext_wdvv_check

EPS = 0.05


def _seeded_model(n, draw):
    rng = np.random.default_rng([17, n, draw])
    while True:
        a = tuple(0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        try:
            return build_quaternion_model(n=n, a=a)
        except DegenerateModelError:
            continue


def _kinds(n):
    """Clean, then every corruption that n allows."""
    yield None
    for kind in CORRUPTIONS + ("phi_swap",):
        if n > 1 or kind not in ("t_symmetry", "homomorphism", "phi_swap"):
            yield kind


def _public_rows(model, t_degree, kind):
    """The rows of ext_wdvv_check on the assembled series, with the
    order-asymmetric bump that verify_bundle adds for t_symmetry."""
    cf = None if kind is None else corrupt_model(model, kind, EPS)
    series = assemble_potential(model, t_degree=t_degree, cf=cf)
    if kind == "t_symmetry":
        series.add_term((0, 0, 1), (), EPS)
        series.add_term((0, 1, 0), (), -EPS)
    return ext_wdvv_check(series).entries()


CASES = ([(n, 4, draw) for n in range(1, 9) for draw in range(3)]
         + [(n, t, 0) for n in (1, 2, 3) for t in (5, 6)])


@pytest.mark.parametrize("n, t_degree, draw", CASES)
def test_series_route_matches_public_check(n, t_degree, draw):
    model = _seeded_model(n, draw)
    for kind in _kinds(n):
        rep = verify_bundle(model, t_degree=t_degree, sample_points=0, corruption=kind, eps=EPS)
        got, want = rep.conditions.entries(), _public_rows(model, t_degree, kind)
        if t_degree == 4:
            assert got == want, kind
            continue
        for rows_got, rows_want in zip(got, want):
            assert [r["name"] for r in rows_got] == [r["name"] for r in rows_want]
            for g, w in zip(rows_got, rows_want):
                assert g["pass"] == w["pass"], (kind, g, w)
                gap = abs(g["value"] - w["value"])
                assert gap <= 1e-13 * max(1.0, abs(w["value"])), (kind, g, w)


def _count_layouts(monkeypatch, module):
    """Count the calls of ``module._layout`` from now on."""
    built, layout = [], ts._layout

    def counted(*args):
        built.append(args[:3])
        return layout(*args)
    monkeypatch.setattr(module, "_layout", counted)
    return built


def test_layout_is_built_once_per_key(monkeypatch):
    model = _seeded_model(2, 0)
    bd._assembled_layout.cache_clear()
    built = _count_layouts(monkeypatch, bd)
    first = verify_bundle(model, sample_points=0)
    second = verify_bundle(model, sample_points=0)
    assert first.conditions.entries() == second.conditions.entries()
    # a corruption keeps the declared blocks, and so the key
    verify_bundle(model, sample_points=0, corruption="cardy")
    assert built == [(2, 8, 4)]
    verify_bundle(model, t_degree=5, sample_points=0)
    assert built == [(2, 8, 4), (2, 8, 5)]
    # assemble_potential reads its keys off the same cached layout
    assemble_potential(model, t_degree=6)
    assemble_potential(model, t_degree=6)
    verify_bundle(model, t_degree=6, sample_points=0)
    assert built == [(2, 8, 4), (2, 8, 5), (2, 8, 6)]
    assert bd._assembled_layout.cache_info().currsize == 3


def test_public_check_builds_its_layout_every_call(monkeypatch):
    series = assemble_potential(_seeded_model(2, 0))
    built = _count_layouts(monkeypatch, ts)
    ext_wdvv_check(series)
    ext_wdvv_check(series)
    assert len(built) == 2


@pytest.mark.parametrize("n, t_degree", [(2, 4), (3, 4), (2, 5), (3, 5)])
def test_cli_ext_wdvv_checks_a_model_on_the_cached_layout(monkeypatch, n, t_degree):
    model = _seeded_model(n, 0)
    config = RunConfig("ext-wdvv", n=n, a=tuple(model.p.a), t_degree=t_degree)
    run(config)
    built = [_count_layouts(monkeypatch, module) for module in (bd, ts)]
    report, _ = run(config)
    assert built == [[], []]  # a warm call builds no layout
    monkeypatch.undo()
    want = ext_wdvv_check(assemble_potential(model, t_degree=t_degree)).entries()
    got = report["residuals"], report["margins"]
    if t_degree == 4:
        assert got == want
        return
    for rows_got, rows_want in zip(got, want):
        assert [r["name"] for r in rows_got] == [r["name"] for r in rows_want]
        for g, w in zip(rows_got, rows_want):
            assert g["pass"] == w["pass"], (g, w)
            assert abs(g["value"] - w["value"]) <= 1e-13 * max(1.0, abs(w["value"])), (g, w)


def _triples(series):
    return [series.coefficient(w, ()) for w in itertools.product(range(series.n), repeat=3)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bulk_cubic_layer_is_the_same_at_every_truncation(n):
    model = _seeded_model(n, 0)
    want = _triples(assemble_potential(model, t_degree=4))
    assert any(want)
    for t_degree in (5, 6):
        assert _triples(assemble_potential(model, t_degree=t_degree)) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_triple_is_a_structural_key(n):
    blocks = (tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(n)),)
    triples = [(w, ()) for w in itertools.product(range(n), repeat=3)]
    for t_degree in (3, 4, 5, 6):
        keys = bd._assembled_layout(n, t_degree, blocks)[0]
        assert list(keys[:n**3]) == triples
        assert len(set(keys)) == len(keys)
        if n > 1:  # the t_symmetry bump words
            assert (keys[1], keys[n]) == (((0, 0, 1), ()), ((0, 1, 0), ()))


def _leaves(obj):
    if isinstance(obj, tuple):  # the layout itself is a named tuple
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


def test_cached_layout_holds_integers_only():
    bd._assembled_layout.cache_clear()
    for n, t_degree in ((1, 4), (3, 4), (2, 5)):
        model = _seeded_model(n, 0)
        verify_bundle(model, t_degree=t_degree, sample_points=0)
        # one stack of n quaternion blocks, as the key reads them
        blocks = (tuple(tuple(range(4 * i, 4 * i + 4)) for i in range(n)),)
        leaves = list(_leaves(bd._assembled_layout(n, t_degree, blocks)))
        assert leaves
        for leaf in leaves:
            if isinstance(leaf, np.ndarray):
                assert leaf.dtype.kind == "i", leaf.dtype
            else:
                assert type(leaf) is int, type(leaf)
    assert bd._assembled_layout.cache_info().misses == 3


# the per-process caches that hand out arrays, one call each
ARRAY_CACHES = {
    "_assembled_layout": lambda: bd._assembled_layout(2, 5, (((0, 1, 2, 3), (4, 5, 6, 7)),)),
    "_quaternion_blocks": lambda: landau_ginzburg._quaternion_blocks(3),
    "_reversion_table": lambda: moduli._reversion_table(3),
    "_sorted_triples": lambda: moduli._sorted_triples(3),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CACHES))
def test_cached_arrays_refuse_an_edit_in_place(name):
    value = ARRAY_CACHES[name]()
    assert ARRAY_CACHES[name]() is value  # every caller shares one value
    arrays = [leaf for leaf in _leaves(value) if isinstance(leaf, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_cached_potential_holds_no_array():
    # the fifth per-process cache: a potential of Python complex values
    terms = _cached_potential(2).terms
    assert all(type(c) is complex for c in terms.values())


def _shift_terms(terms, center):
    """Exponent dictionary of F(t + center) from that of F(t): every pick
    of every monomial, expanded one coordinate at a time.  This was the
    recentring of ``_assemble`` above truncation 4, kept as its
    reference."""
    out = {}
    for exps, coeff in terms.items():
        for pick in itertools.product(*[range(e + 1) for e in exps]):
            c = coeff
            for e, k, c0 in zip(exps, pick, center):
                c *= comb(e, k) * c0 ** (e - k)
            if c != 0.0:
                out[pick] = out.get(pick, 0.0) + c
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("t_degree", [5, 6])
def test_recentred_bulk_matches_shifted_terms(n, t_degree):
    """Every coefficient of the assembled vector above truncation 4: the
    bulk orders 4 to t_degree against _shift_terms, spread evenly over
    their orderings, and every other key against truncation 4."""
    model = _seeded_model(n, 0)
    chart = _chart_on(model.closed)
    potential = _cached_potential(n)
    shifted = _shift_terms(potential.terms, np.asarray(chart.t, dtype=complex))
    for kind in _kinds(n):
        cf = model.cf if kind is None else corrupt_model(model, kind, EPS)
        keys, _, got = bd._assemble(model, chart, cf, t_degree)
        want = dict(zip(*bd._assemble(model, chart, cf, 4)[::2]))
        bulk = 0
        for (word, boundary), g in zip(keys, got):
            if boundary or len(word) < 4:
                w = want[word, boundary]
            else:
                bulk += 1
                e = tuple(np.bincount(word, minlength=n))
                orderings = len(set(itertools.permutations(word)))
                w = shifted.get(e, 0.0) / orderings
            assert abs(g - w) <= 1e-15 * max(1.0, abs(w)), (kind, word, boundary, g, w)
        assert len(keys) == len(want) + bulk
        assert bulk or n == 1  # n = 1 has no bulk order from 4 to t_degree


def _assembled_with(monkeypatch, model, potential):
    """assemble_potential at truncation 5 on ``potential`` in place of the
    cached fit."""
    with monkeypatch.context() as patch:
        patch.setattr(bd, "_cached_potential", lambda *args: potential)
        return assemble_potential(model, t_degree=5)


def test_series_reads_the_potential_by_exponent(monkeypatch):
    model = _seeded_model(3, 0)
    terms = _cached_potential(3).terms
    want = assemble_potential(model, t_degree=5).terms
    reordered = PotentialPoly(3, dict(reversed(list(terms.items()))))
    assert list(reordered.terms) != list(terms)
    assert _assembled_with(monkeypatch, model, reordered).terms == want
    extra = PotentialPoly(3, {**terms, (0, 0, 6): 1.0})
    with pytest.raises(ValueError, match="outside the ansatz"):
        _assembled_with(monkeypatch, model, extra)


def test_potential_is_fitted_once_whatever_the_eq_tol():
    """The fit reads no tolerance, so every eq_tol reuses the one fit of n."""
    model = _seeded_model(2, 0)
    _cached_potential.cache_clear()
    for eq_tol in (1e-8, 1e-9, 1e-10):
        verify_bundle(model, t_degree=5, sample_points=0, tol=eq_tol)
    assert _cached_potential.cache_info().misses == 1


def test_t_degree_three_is_refused():
    model = _seeded_model(2, 0)
    with pytest.raises(ValueError, match="t_degree of at least 4"):
        verify_bundle(model, t_degree=3)
    # the series check itself keeps the documented vacuous case
    rep = ext_wdvv_check(assemble_potential(model, t_degree=3))
    assert [rep.residuals["condition_%d" % k] for k in range(3, 8)] == [0.0] * 5
