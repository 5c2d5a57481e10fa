"""The closed algebra as the per-model context.

``build_closed`` reads the residue functional on every basis monomial off
the Laurent inverse of p', cross-checked by the reductions, and finds
the critical points only when they are first read, cross-checking the
values by partial fractions there; charts, frames and the CLI reuse it
instead of recomputing it.
"""

import collections
import itertools

import numpy as np
import pytest

from lgcardy import bundle, cli, landau_ginzburg, moduli, polycore
from lgcardy.bundle import verify_bundle
from lgcardy.landau_ginzburg import build_closed, build_quaternion_model
from lgcardy.moduli import _chart_on
from lgcardy.polycore import (
    DegenerateModelError,
    LGPolynomial,
    critical_points,
    residue_functional,
    reversion_polynomials,
)

from test_frobenius import dense
from test_polycore import evaluate, poly_mod


def _draws():
    rng = np.random.default_rng(2005)
    for scale in (0.8, 1e3):
        for n in range(1, 9):
            for _ in range(3):
                yield scale, n, tuple(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


def _zero_constant_draws():
    """Draws whose p' has a zero constant term, so that 0 is a critical
    point: a_(n-1) = 0 at n = 3..8, and every n = 1 draw (p' = 2z)."""
    rng = np.random.default_rng(2029)
    for scale in (0.8, 1e3):
        for n in (1, 3, 4, 5, 6, 7, 8):
            for _ in range(3):
                a = scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
                if n > 1:
                    a[n - 2] = 0.0  # a_(n-1), the constant term of p'
                yield scale, n, tuple(a)


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _lagrange_reference(roots):
    """The Lagrange basis at the roots, one np.convolve per factor: row i
    holds prod_{j != i} (z - roots[j]) / (roots[i] - roots[j])."""
    basis = np.zeros((len(roots), len(roots)), dtype=complex)
    for i, ai in enumerate(roots):
        num, denom = np.ones(1, dtype=complex), 1.0 + 0.0j
        for j, aj in enumerate(roots):
            if j != i:
                num = np.convolve(num, np.array([-aj, 1.0], dtype=complex))
                denom *= ai - aj
        basis[i] = num / denom
    return basis


def test_one_pass_matches_per_monomial_reference():
    for _, n, a in _draws():
        p = LGPolynomial(n, a)
        values = np.array([
            residue_functional(np.eye(1, k + 1, k, dtype=complex)[0], p)
            for k in range(2 * n - 1)
        ])
        roots = critical_points(p)
        idem = _lagrange_reference(roots)
        closed = build_closed(p.n, p.a)
        assert np.array_equal(closed.roots, roots)
        assert _relative(closed.functional_values, values) <= 1e-13
        assert _relative(closed.idempotents, idem) <= 1e-13
        assert _relative(closed.mu, idem @ values[:n]) <= 1e-13


@pytest.mark.parametrize("j", range(3))
def test_corrupted_laurent_route_raises(monkeypatch, j):
    # b[j] of the Laurent inverse of p' enters only the value on z^(n-1+j),
    # so each case shows that value is still judged: without roots by the
    # reductions z^k mod p', before a model reads any root
    n, a = 3, (-0.7, 0.4 + 0.2j, 0.3)
    build_closed(n=n, a=a)
    exact = polycore._laurent_inverse

    def skewed(c, depth):
        b = exact(c, depth)
        b[j] += 1e-3
        return b

    monkeypatch.setattr(polycore, "_laurent_inverse", skewed)
    for builder in (build_closed, build_quaternion_model):
        with pytest.raises(DegenerateModelError, match="residue routes disagree: the reductions give"):
            builder(n=n, a=a)


@pytest.mark.parametrize("k", range(5))
def test_partial_fractions_cross_check_the_functional_where_roots_exist(k):
    # a value that reaches the roots stage skewed is caught there
    n, a = 3, (-0.7, 0.4 + 0.2j, 0.3)
    closed = build_closed(n=n, a=a)
    closed.functional_values[k] += 1e-3
    with pytest.raises(DegenerateModelError, match="disagree: partial fractions give"):
        closed.roots


def test_non_finite_coefficients_are_refused():
    for a in ((np.inf, 0.0), (0.0, np.nan)):
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateModelError, match="non-finite coefficients"):
                build_closed(2, a)


def _count_calls(monkeypatch, names):
    """Count calls of the named package functions, wherever they are bound."""
    counts = collections.Counter()
    modules = (polycore, landau_ginzburg, moduli, bundle, cli)
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for m in modules:
            if getattr(m, name, None) is original:
                monkeypatch.setattr(m, name, counted)
    return counts


def test_bundle_builds_each_closed_algebra_once(monkeypatch):
    counts = _count_calls(monkeypatch, ("build_closed",))
    rows = []
    exact = landau_ginzburg._critical_stack

    def recording(dp, failures, degree):
        rows.append(len(dp))
        return exact(dp, failures, degree)

    monkeypatch.setattr(landau_ginzburg, "_critical_stack", recording)
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    verify_bundle(model, sample_points=10)
    # the base model, then the ten sample points as one stack
    assert counts == {"build_closed": 1}
    assert rows == [1, 10]


def test_chart_command_builds_one_chart(monkeypatch, capsys):
    # a chart reads no critical point: _critical_stack is never called
    names = ("build_closed", "flat_chart", "_critical_stack")
    counts = _count_calls(monkeypatch, names)
    a = "--a=0.3,0.1 -1,0 0.2,0 0.8,0 0.1,0.2 -0.5,0 0.3,0.3 0.1,0"
    assert cli.main(["chart", "--n", "8", a]) == 0
    capsys.readouterr()
    assert counts == {"build_closed": 1, "flat_chart": 1}


def test_only_a_read_of_the_roots_finds_them(monkeypatch):
    counts = _count_calls(monkeypatch, ("_critical_stack",))
    closed = build_closed(n=3, a=(-0.7, 0.4 + 0.2j, 0.3))
    moduli.structure_tensor(_chart_on(closed))
    moduli.flat_chart(n=3, a=(-0.7, 0.4 + 0.2j, 0.3))
    assert counts == {}
    # the roots, idempotents, mu and mu_product of one closed algebra: one call
    closed.mu_product, closed.mu, closed.idempotents, closed.roots
    assert counts == {"_critical_stack": 1}


def _assert_agree(got, want, scale):
    """Entrywise within 1e-12 max(1, |want|) at scale 0.8; at scale 1e3,
    where entries span many orders, within 1e-12 of the largest entry."""
    got, want = np.asarray(got), np.asarray(want)
    if scale < 1:
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    else:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _products_by_poly_mod(closed):
    """The structure tensor as one poly_mod per product z^(i+j)."""
    n = closed.n
    dp = closed.p.derivative_coeffs()
    mul = np.zeros((n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            rem = poly_mod(np.eye(1, i + j + 1, i + j, dtype=complex)[0], dp)
            mul[i, j, : len(rem)] = rem
    return mul


def _pairing_by_poly_mod(rows, closed):
    """Residue pairing of polynomial rows: l(u v mod p') from the values."""
    dp = closed.p.derivative_coeffs()
    values = closed.functional_values
    g = np.zeros((len(rows), len(rows)), dtype=complex)
    for i, u in enumerate(rows):
        for j, v in enumerate(rows):
            w = poly_mod(np.convolve(u, v), dp)
            g[i, j] = np.dot(w, values[: len(w)])
    return g


def _horner_critical_data(p):
    """The critical data along the Horner route: the companion eigenvalues
    (numpy.roots), three Newton steps with p' and p'' each read by
    Horner's rule (numpy's polyval), the (real, imag) sort, the partial
    fractions of z^0 .. z^(2n-2) over the roots, each monomial read by
    polyval, the Lagrange basis by np.convolve and mu = l(e_i)."""
    n, polyval = p.n, np.polynomial.polynomial.polyval
    dp = p.derivative_coeffs()
    ddp = dp[1:] * np.arange(1, n + 1)
    roots = np.roots(dp[::-1]).astype(complex)
    for _ in range(3):
        roots = roots - polyval(roots, dp) / polyval(roots, ddp)
    roots = roots[np.lexsort((roots.imag, roots.real))]
    curv = polyval(roots, ddp)
    monomials = np.eye(2 * n - 1, dtype=complex)
    values = np.array([np.sum(polyval(roots, z) / curv) for z in monomials])
    idem = _lagrange_reference(roots)
    return roots, values, idem, idem @ values[:n]


def test_power_table_matches_the_horner_route():
    for scale, n, a in itertools.chain(_draws(), _zero_constant_draws()):
        closed = build_closed(n=n, a=a)
        roots, values, idem, mu = _horner_critical_data(closed.p)
        # the same root order: each reference root is nearest its own slot
        nearest = np.argmin(np.abs(roots[:, None] - closed.roots[None]), axis=1)
        assert np.array_equal(nearest, np.arange(n))
        _assert_agree(closed.roots, roots, scale)
        _assert_agree(closed.functional_values, values, scale)
        _assert_agree(closed.mu, mu, scale)
        _assert_agree(closed.idempotents, idem, scale)


def test_zero_constant_term_gives_the_critical_point_plus_zero():
    # the order-n companion has a zero last column, so 0 is an exact
    # eigenvalue, and 0.0 - x keeps its sign bits clear
    for _, n, a in _zero_constant_draws():
        roots = build_closed(n, a).roots
        zero = roots[np.argmin(np.abs(roots))]
        assert zero == 0 and not np.signbit(zero.real) and not np.signbit(zero.imag)


def test_builders_take_an_integer_n_and_no_polynomial():
    for n in (2.9, "2", True):
        with pytest.raises((TypeError, ValueError)):
            build_closed(n, (-3.0, 0.0))
    for builder in (build_closed, build_quaternion_model, moduli.flat_chart):
        with pytest.raises(TypeError):
            builder(p=LGPolynomial(2, (-3.0, 0.0)))
    assert build_closed(np.int64(2), (-3.0, 0.0)).n == 2


def test_stacked_critical_data_is_each_row_bit_for_bit():
    # rows with and without a zero constant term of p' share each stack
    by_degree = collections.defaultdict(list)
    for _, n, a in itertools.chain(_draws(), _zero_constant_draws()):
        by_degree[n].append(a)
    for n, rows in by_degree.items():
        a = np.array(rows)
        failures = polycore._Failures(len(a))
        stacked = landau_ginzburg._critical_data(a, failures)
        assert failures.ok.all()
        for s in range(len(a)):
            alone = landau_ginzburg._critical_data(a[s:s + 1], polycore._Failures(1))
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[s], want[0])


def test_stacked_weights_are_each_closed_algebras_bit_for_bit():
    # the sweep's stacked roots, idempotents and mu are those that one
    # closed algebra computes on first read
    by_degree = collections.defaultdict(list)
    for _, n, a in itertools.chain(_draws(), _zero_constant_draws()):
        by_degree[n].append(a)
    for n, rows in by_degree.items():
        a = np.array(rows)
        failures = polycore._Failures(len(a))
        _, roots, values = landau_ginzburg._critical_data(a, failures)
        idem, mu = landau_ginzburg._idempotents(roots, values, failures.ok)
        for s in range(len(a)):
            closed = build_closed(n, a[s])
            assert np.array_equal(closed.roots, roots[s])
            assert np.array_equal(closed.idempotents, idem[s])
            assert np.array_equal(closed.mu, mu[s])


def test_products_are_the_poly_mod_reductions():
    for scale, n, a in _draws():
        closed = build_closed(n=n, a=a)
        _assert_agree(dense(closed.pair.algebra), _products_by_poly_mod(closed), scale)


def test_ttilde_matches_revert_series():
    # the table product of the chart against the same reversion
    # polynomials evaluated one monomial at a time
    for scale, n, a in _draws():
        chart = _chart_on(build_closed(n=n, a=a))
        _assert_agree(chart.ttilde, [evaluate(q, a) for q in reversion_polynomials(n)], scale)


def test_chart_metrics_match_the_poly_mod_pairing():
    # at scale 1e3 the metric residual is rounding noise of the
    # ill-conditioned tangents, so only scale 0.8 is compared
    for scale, n, a in _draws():
        if scale > 1:
            continue
        chart = _chart_on(build_closed(n=n, a=a))
        flip = np.fliplr(np.eye(n))
        g = _pairing_by_poly_mod(chart.tangents, chart.closed)
        _assert_agree(chart.metric_residual, np.max(np.abs(g - flip)), scale)
