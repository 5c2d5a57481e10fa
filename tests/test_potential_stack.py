"""The potential fit as one stack.

``reconstruct_potential`` charts all sample draws, contracts their structure
tensors and builds its design matrix as one stack.  These tests hold it
against a per-chart loop written out here: one draw at a time through
``build_closed``, ``flat_chart`` and ``structure_tensor``, and the dense n^3
third-derivative basis.
"""

import numpy as np
import pytest

from lgcardy import cli, landau_ginzburg, moduli, polycore
from lgcardy.landau_ginzburg import build_closed
from lgcardy.moduli import (
    PotentialPoly,
    UnderdeterminedFitError,
    _sample_stack,
    flat_chart,
    reconstruct_potential,
    sample_charts,
    structure_tensor,
)
from lgcardy.polycore import DegenerateModelError, _lagrange_rows, _weighted_exponents

from test_closed_context import _count_calls, _lagrange_reference


def _dense_basis(exponents, points):
    """d_i d_j d_k t^e at each point for every (i, j, k), as
    [point, monomial, i, j, k]: each entry the falling-factorial factor
    times the lowered monomial, its powers multiplied in coordinate order."""
    t = np.asarray(points, dtype=complex)
    count, n = t.shape
    e = np.asarray(exponents, dtype=int).reshape(len(exponents), n)
    hits = (np.indices((n, n, n)).reshape(3, -1, 1) == np.arange(n)).sum(axis=0)
    factor = np.ones((len(e), n**3), dtype=int)
    for s in range(3):
        factor *= np.prod(np.where(hits > s, e[:, None, :] - s, 1), axis=2)
    lowered = np.maximum(e[:, None, :] - hits, 0)
    out = np.ones((count, len(e), n**3), dtype=complex)
    for l in range(n):
        out = out * t[:, l, None, None] ** lowered[None, :, :, l]
    return (factor * out).reshape(count, len(e), n, n, n)


def _reference_draws(n, count, seed, scale=0.8):
    """The accepted draws of sample_charts, one draw at a time, the number
    of draws made, and how many passed the guards but not the weight
    window."""
    rng = np.random.default_rng(seed)
    kept, draws, outside = [], 0, 0
    while len(kept) < count:
        assert draws < 200 * count
        draws += 1
        z = rng.normal(size=(2, n))
        a = scale * (z[0] + 1j * z[1])
        try:
            closed = build_closed(n=n, a=a)
        except DegenerateModelError:
            continue
        if np.min(np.abs(closed.mu_product)) < 1e-3 or np.max(np.abs(closed.mu_product)) > 1e3:
            outside += 1
            continue
        kept.append(a)
    return np.array(kept), draws, outside


def _reference_fit(n, count, seed, index_reversal):
    """The fit of reconstruct_potential, one chart at a time; with
    ``index_reversal`` it is made in the reversed labels t^(n+1-i)."""
    step = -1 if index_reversal else 1
    exponents = [e[::step] for e in _weighted_exponents(tuple(range(n + 1, 1, -1)), 2 * n + 4)]
    draws, _, _ = _reference_draws(n, count, seed)
    charts = [flat_chart(n=n, a=a) for a in draws]
    i, j, k = np.array([(i, j, k) for i in range(n) for j in range(i, n)
                        for k in range(j, n)]).T
    basis = _dense_basis(exponents, [chart.t[::step] for chart in charts])
    design = basis[:, :, i, j, k].transpose(0, 2, 1).reshape(-1, len(exponents))
    rhs = np.concatenate([structure_tensor(chart)[::step, ::step, ::step][i, j, k]
                          for chart in charts])
    beta = np.linalg.lstsq(design, rhs, rcond=None)[0]
    return draws, dict(zip(exponents, beta))


@pytest.mark.parametrize("index_reversal", (False, True))
@pytest.mark.parametrize("n", range(1, 9))
def test_stacked_fit_matches_per_chart_loop(n, index_reversal):
    # under index_reversal the CLI's relabelled payload of the one fit is
    # held against a fit made in the reversed labels
    draws, want = _reference_fit(n, 60, 42, index_reversal)
    charts = sample_charts(n, 60, seed=42)
    assert np.array_equal([chart.p.a for chart in charts], draws)
    F, fit = reconstruct_potential(n)
    step = -1 if index_reversal else 1
    assert [e[::step] for e in F.terms] == list(want)
    got = F.terms
    if index_reversal:
        report, _ = cli.run(cli.RunConfig("potential", n=n, index_reversal=True))
        got = {tuple(row["exponents"]): complex(*row["coeff"])
               for row in report["data"]["potential"]["monomials"]}
    assert got.keys() == want.keys()
    for exps, c in want.items():
        assert abs(got[exps] - c) <= 1e-12 * max(1.0, abs(c))
    assert fit < 1e-9


@pytest.mark.parametrize("count", (1, 60))
def test_stacked_lagrange_rows_match_the_reference(count):
    for n in range(1, 9):
        roots = _sample_stack(n, count, 7, 0.8)[2]
        got = _lagrange_rows(roots)
        assert got.shape == (count, n, n)
        for s in range(count):
            want = _lagrange_reference(roots[s])
            assert np.max(np.abs(got[s] - want)) <= 1e-13 * np.max(np.abs(want))


def test_third_derivatives_are_bit_identical_to_the_dense_basis():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        exponents = _weighted_exponents(tuple(range(n + 1, 1, -1)), 2 * n + 4)
        coeffs = rng.normal(size=len(exponents)) + 1j * rng.normal(size=len(exponents))
        F = PotentialPoly(n, dict(zip(exponents, coeffs)))
        for count in (1, 20):
            points = rng.uniform(-0.8, 0.8, size=(count, n))
            want = np.sum(coeffs[:, None, None, None] * _dense_basis(exponents, points), axis=1)
            assert np.array_equal(F._third_derivatives_at(points), want)


def test_fit_is_one_stack_per_draw_batch(monkeypatch):
    # at scale 200 the weight window refuses draws, so sampling takes more
    # than one batch: a first batch of every sample, then one batch per
    # shortfall, ending on a batch that is kept whole
    _, draws, outside = _reference_draws(3, 10, 5, scale=200.0)
    assert outside > 0
    names = ("_chart_on", "_closed_algebra", "structure_tensor", "build_closed", "flat_chart",
             "sample_charts")
    counts = _count_calls(monkeypatch, names)
    rows = []
    exact = landau_ginzburg._critical_stack

    def recording(dp, failures, degree):
        rows.append(len(dp))
        return exact(dp, failures, degree)

    monkeypatch.setattr(landau_ginzburg, "_critical_stack", recording)
    _sample_stack(3, 10, 5, 200.0)
    assert rows[0] == 10 and len(rows) > 1 and sum(rows) == draws
    for n in (3, 8):
        rows.clear()
        reconstruct_potential(n)
        assert rows == [60]
    assert counts == {}


def test_skewed_laurent_route_flags_every_draw(monkeypatch):
    exact = polycore._laurent_inverse

    def skewed(c, depth):
        b = exact(c, depth)
        b[-1] += 1e-3
        return b

    errors = []
    critical_data = moduli._critical_data

    def recording(a, failures):
        out = critical_data(a, failures)
        errors.extend(failures.errors)
        return out

    monkeypatch.setattr(polycore, "_laurent_inverse", skewed)
    monkeypatch.setattr(moduli, "_critical_data", recording)
    with pytest.raises(DegenerateModelError, match="sampling kept hitting degenerate models"):
        sample_charts(3, 2)
    assert len(errors) == 400
    assert all("residue routes disagree" in str(e) for e in errors)


def test_weight_window_still_rejects_draws():
    # at scale 200 some draws pass every guard and are refused for their
    # weights alone; at scale 1e5 every weight falls below the window
    draws, _, outside = _reference_draws(3, 10, 5, scale=200.0)
    assert outside > 0
    charts = sample_charts(3, 10, seed=5, scale=200.0)
    assert np.array_equal([chart.p.a for chart in charts], draws)
    for chart in charts:
        mu = np.abs(chart.closed.mu_product)
        assert mu.min() >= 1e-3 and mu.max() <= 1e3
    with pytest.raises(DegenerateModelError, match="sampling kept hitting degenerate models"):
        sample_charts(3, 2, scale=1e5)


@pytest.mark.parametrize("n, monomials", ((6, 33), (7, 58), (8, 95)))
def test_one_sample_leaves_the_fit_underdetermined(n, monomials):
    with pytest.raises(UnderdeterminedFitError, match="of %d monomials" % monomials):
        reconstruct_potential(n, sample_count=1)


@pytest.mark.parametrize("n, rank, monomials", ((6, 32, 33), (7, 54, 58), (8, 81, 95)))
def test_cli_refuses_an_underdetermined_fit(capsys, n, rank, monomials):
    assert cli.main(["potential", "--n", str(n), "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rank %d of %d monomials" % (rank, monomials) in captured.err


def test_cli_fits_from_two_samples_at_n8(capsys):
    assert cli.main(["potential", "--n", "8", "--samples", "2"]) == 0
    capsys.readouterr()
