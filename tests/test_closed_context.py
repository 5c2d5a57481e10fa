"""The closed algebra as the per-model context.

``build_closed`` finds the critical points once and evaluates the residue
functional on every basis monomial in one pass, along both residue routes;
charts, frames and the CLI reuse it instead of recomputing it.
"""

import collections

import numpy as np
import pytest

from lgcardy import bundle, cli, landau_ginzburg, moduli, polycore
from lgcardy.bundle import verify_bundle
from lgcardy.landau_ginzburg import build_closed, build_quaternion_model
from lgcardy.polycore import (
    DegenerateModelError,
    LGPolynomial,
    lagrange_basis,
    residue_functional,
)


def _draws():
    rng = np.random.default_rng(2005)
    for scale in (0.8, 1e3):
        for n in range(1, 9):
            for _ in range(3):
                yield n, tuple(scale * (rng.normal(size=n) + 1j * rng.normal(size=n)))


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def test_one_pass_matches_per_monomial_reference():
    for n, a in _draws():
        p = LGPolynomial(n, a)
        values = np.array([
            residue_functional(np.eye(1, k + 1, k, dtype=complex)[0], p)
            for k in range(2 * n - 1)
        ])
        roots, basis = lagrange_basis(p)
        idem = np.array(basis)
        closed = build_closed(p=p)
        assert np.array_equal(closed.roots, roots)
        assert _relative(closed.functional_values, values) <= 1e-13
        assert _relative(closed.idempotents, idem) <= 1e-13
        assert _relative(closed.mu, idem @ values[:n]) <= 1e-13


@pytest.mark.parametrize("j", range(3))
def test_corrupted_laurent_route_raises(monkeypatch, j):
    # b[j] of the Laurent inverse of p' enters only the value on z^(n-1+j),
    # so each case shows that value is still cross-checked
    n, a = 3, (-0.7, 0.4 + 0.2j, 0.3)
    build_closed(n=n, a=a)
    exact = polycore._laurent_inverse

    def skewed(c, depth):
        b = exact(c, depth)
        b[j] += 1e-3
        return b

    monkeypatch.setattr(polycore, "_laurent_inverse", skewed)
    with pytest.raises(DegenerateModelError, match="residue routes disagree"):
        build_closed(n=n, a=a)


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
    counts = _count_calls(monkeypatch, ("build_closed", "critical_points"))
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    verify_bundle(model, sample_points=10)
    # the base model, then one per sample point
    assert counts == {"build_closed": 11, "critical_points": 11}


def test_chart_command_builds_one_chart(monkeypatch, capsys):
    names = ("build_closed", "flat_chart", "revert_series", "critical_points")
    counts = _count_calls(monkeypatch, names)
    a = "--a=0.3,0.1 -1,0 0.2,0 0.8,0 0.1,0.2 -0.5,0 0.3,0.3 0.1,0"
    assert cli.main(["chart", "--n", "8", a]) == 0
    capsys.readouterr()
    assert counts == {name: 1 for name in names}
