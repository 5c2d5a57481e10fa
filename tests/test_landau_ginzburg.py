"""Tests for polynomial model construction, closed and open sectors."""

import numpy as np
import pytest

from lgcardy.cardy import verify_cardy_frobenius
from lgcardy.frobenius import verify_frobenius
from lgcardy.landau_ginzburg import (
    build_closed,
    build_quaternion_model,
    model_from_dict,
    model_to_dict,
)
from lgcardy.polycore import DegenerateModelError

from test_frobenius import dense


def test_closed_frozen_cubic():
    # p = z^3 - 3z: critical points -1, 1; l(1) = 0, l(z) = 1/3
    closed = build_closed(n=2, a=(-3.0, 0.0))
    assert np.allclose(closed.roots, [-1.0, 1.0])
    g = closed.pair.gram()
    assert np.allclose(g, [[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
    # z * z = 1 modulo p' = 3z^2 - 3
    assert np.allclose(dense(closed.pair.algebra)[1, 1, :], [1.0, 0.0])
    assert np.allclose(closed.mu, [-1.0 / 6.0, 1.0 / 6.0])
    assert np.allclose(closed.mu_product, closed.mu)
    rep = verify_frobenius(closed.pair, commutative=True)
    assert rep.passed, rep.summary()


def test_closed_idempotents_frozen():
    closed = build_closed(n=2, a=(-3.0, 0.0))
    # at root -1 the idempotent is (1 - z)/2, at root 1 it is (1 + z)/2
    assert np.allclose(closed.idempotents[0], [0.5, -0.5])
    assert np.allclose(closed.idempotents[1], [0.5, 0.5])
    # idempotents sum to the unit
    assert np.allclose(closed.idempotents.sum(axis=0), [1.0, 0.0])


def test_closed_gram_is_hankel():
    closed = build_closed(n=4, a=(0.3, -1.0, 0.2, 0.8))
    g = closed.pair.gram()
    v = closed.functional_values
    for i in range(4):
        for j in range(4):
            assert g[i, j] == pytest.approx(v[i + j], abs=1e-12)


def test_closed_n1():
    closed = build_closed(n=1, a=(5.0,))
    assert np.allclose(closed.roots, [0.0])
    assert np.allclose(closed.mu, [0.5])


def test_mu_two_routes_random():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 50:
        n = int(rng.integers(2, 7))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        try:
            closed = build_closed(n=n, a=a)
        except DegenerateModelError:
            continue
        assert np.max(np.abs(closed.mu - closed.mu_product)) < 1e-9
        checked += 1


def test_quaternion_model_frozen():
    model = build_quaternion_model(n=2, a=(-3.0, 0.0))
    # principal square roots of (-1/6, 1/6)
    assert model.rho[0] == pytest.approx(1j / np.sqrt(6.0))
    assert model.rho[1] == pytest.approx(1.0 / np.sqrt(6.0))
    assert model.cf.a.algebra.dim == 2
    assert model.cf.b.algebra.dim == 8
    assert model.cf.b.algebra.blocks == [(0, 4), (4, 4)]
    rep = verify_cardy_frobenius(model.cf)
    assert rep.passed, rep.summary()


def test_quaternion_model_n1():
    model = build_quaternion_model(n=1, a=(4.0,))
    assert model.closed.mu[0] == pytest.approx(0.5)
    assert model.rho[0] == pytest.approx(1.0 / np.sqrt(2.0))
    assert verify_cardy_frobenius(model.cf).passed


def test_branch_flip():
    model = build_quaternion_model(n=2, a=(-3.0, 0.0), branch=(-1, 1))
    assert model.rho[0] == pytest.approx(-1j / np.sqrt(6.0))
    assert verify_cardy_frobenius(model.cf).passed
    with pytest.raises(ValueError):
        build_quaternion_model(n=2, a=(-3.0, 0.0), branch=(2, 1))
    with pytest.raises(ValueError):
        build_quaternion_model(n=2, a=(-3.0, 0.0), branch=(1,))


def test_random_models_pass_cardy():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        n = int(rng.integers(2, 6))
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        try:
            model = build_quaternion_model(n=n, a=a)
        except DegenerateModelError:
            continue
        rep = verify_cardy_frobenius(model.cf)
        assert rep.passed, rep.summary()
        checked += 1


def test_bulk_matches_idempotent_weights():
    model = build_quaternion_model(n=3, a=(0.5, 1.0, -0.25))
    closed = model.closed
    # bulk Gram is diagonal with the idempotent weights
    assert np.allclose(model.cf.a.gram(), np.diag(closed.mu))
    # boundary blocks have Gram rho_i * diag(2, -2, -2, -2)
    gb = model.cf.b.gram()
    for i, r in enumerate(model.rho):
        block = gb[4 * i : 4 * i + 4, 4 * i : 4 * i + 4]
        assert np.allclose(block, r * np.diag([2.0, -2.0, -2.0, -2.0]))
    # rho squares back to mu
    assert np.allclose(model.rho**2, closed.mu)


def test_degenerate_model_raises():
    with pytest.raises(DegenerateModelError):
        build_quaternion_model(n=2, a=(0.0, 0.0))


def test_model_json_round_trip():
    model = build_quaternion_model(n=2, a=(-3.0, 0.0), branch=(-1, 1))
    payload = model_to_dict(model)
    assert payload["n"] == 2
    assert payload["branch"] == [-1, 1]
    assert len(payload["roots"]) == 2
    assert "structure" in payload["closed"]
    assert "phi" in payload["cf"]
    back = model_from_dict(payload)
    assert np.allclose(back.rho, model.rho)
    assert np.allclose(back.closed.roots, model.closed.roots)


def test_block_structure_is_shared_and_read_only():
    # two models of one degree share the block cubes and units, which an
    # edit in place cannot reach; each keeps its own functionals and phi
    first = build_quaternion_model(n=3, a=(-0.7, 0.4 + 0.2j, 0.3))
    second = build_quaternion_model(n=3, a=(0.5, -1.0, 0.2j))
    for pair_1, pair_2 in ((first.cf.a, second.cf.a), (first.cf.b, second.cf.b)):
        (index, cubes), = pair_1.algebra.stacks
        assert cubes is pair_2.algebra.stacks[0][1] and index is pair_2.algebra.stacks[0][0]
        for array in (index, cubes, pair_1.algebra.unit):
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 7
        assert pair_1.functional is not pair_2.functional
    assert first.cf.phi is not second.cf.phi
    first.cf.phi[0, 0] = 2.0
    assert second.cf.phi[0, 0] == 1.0
