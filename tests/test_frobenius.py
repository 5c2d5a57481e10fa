"""Tests for algebra construction and Frobenius pair verification."""

import numpy as np
import pytest

from lgcardy.frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    complex_to_json,
    json_to_complex,
    m2_quaternion_isomorphism,
    matrix_pair,
    number_pair,
    orthogonal_sum,
    orthogonal_sum_list,
    pair_from_dict,
    pair_to_dict,
    quaternion_pair,
    verify_frobenius,
    zero_pair,
)


def test_entries_are_the_one_pass_rule():
    rep = VerificationReport("rule", 1e-9, {"b": 1e-9, "a": 2e-9}, {"m": 1e-9, "k": 0.5})
    residuals, margins = rep.entries()
    assert [(r["name"], r["pass"]) for r in residuals] == [("a", False), ("b", True)]
    assert [(r["name"], r["pass"]) for r in margins] == [("k", True), ("m", False)]
    assert all(r["tol"] == 1e-9 for r in residuals + margins)
    assert not rep.passed
    assert rep.to_dict()["residuals"] == residuals and rep.to_dict()["margins"] == margins
    assert VerificationReport("empty", 1e-9).passed


def test_entries_fail_nan_residual_and_margin():
    nan = float("nan")
    for rep in (VerificationReport("r", 1e-9, {"x": nan}),
                VerificationReport("m", 1e-9, {}, {"x": nan})):
        residuals, margins = rep.entries()
        assert [r["pass"] for r in residuals + margins] == [False]
        assert not rep.passed and rep.to_dict()["passed"] is False


def test_number_pair():
    p = number_pair(0.5)
    rep = verify_frobenius(p, commutative=True)
    assert rep.passed
    assert p.gram()[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="degenerate functional"):
        number_pair(0.0)


def test_matrix_pair_products():
    p = matrix_pair(2, 1.0)
    alg = p.algebra
    # E12 * E21 = E11, E12 * E12 = 0
    e12 = np.zeros(4)
    e12[1] = 1.0
    e21 = np.zeros(4)
    e21[2] = 1.0
    prod = alg.multiply(e12, e21)
    expect = np.zeros(4)
    expect[0] = 1.0
    assert np.allclose(prod, expect)
    assert np.allclose(alg.multiply(e12, e12), 0.0)
    rep = verify_frobenius(p)
    assert rep.passed
    # matrices do not commute, so the commutative check must fire
    rep = verify_frobenius(p, commutative=True)
    assert not rep.passed
    assert rep.residuals["commutativity"] > 0.5


def test_matrix_pair_gram():
    mu = 0.7 - 0.2j
    p = matrix_pair(3, mu)
    g = p.gram()
    # (E_kr, E_lm) = mu when r = l and m = k, else 0
    for k in range(3):
        for r in range(3):
            for l in range(3):
                for m in range(3):
                    expect = mu if (r == l and m == k) else 0.0
                    assert g[k * 3 + r, l * 3 + m] == pytest.approx(expect)


def test_quaternion_relations():
    p = quaternion_pair(1.0)
    alg = p.algebra
    I = np.array([0, 1, 0, 0], dtype=complex)
    J = np.array([0, 0, 1, 0], dtype=complex)
    K = np.array([0, 0, 0, 1], dtype=complex)
    assert np.allclose(alg.multiply(I, J), K)
    assert np.allclose(alg.multiply(J, K), I)
    assert np.allclose(alg.multiply(K, I), J)
    assert np.allclose(alg.multiply(J, I), -K)
    for u in (I, J, K):
        assert np.allclose(alg.multiply(u, u), -alg.unit)
    assert verify_frobenius(p).passed


def test_quaternion_gram():
    rho = 0.25 + 0.1j
    p = quaternion_pair(rho)
    g = p.gram()
    assert np.allclose(g, np.diag([2, -2, -2, -2]) * rho)
    assert p.apply(p.algebra.unit) == pytest.approx(2 * rho)


def test_orthogonal_sum():
    p = orthogonal_sum(number_pair(2.0), quaternion_pair(0.5))
    assert p.algebra.dim == 5
    assert p.algebra.blocks == [(0, 1), (1, 4)]
    rep = verify_frobenius(p)
    assert rep.passed
    # cross-block products vanish
    x = np.zeros(5)
    x[0] = 1.0
    y = np.zeros(5)
    y[1] = 1.0
    assert np.allclose(p.algebra.multiply(x, y), 0.0)
    # folding over a list keeps one block per summand
    q = orthogonal_sum_list([number_pair(1.0), number_pair(2.0), quaternion_pair(1.0)])
    assert q.algebra.blocks == [(0, 1), (1, 1), (2, 4)]


def test_orthogonal_sum_with_zero_dim():
    z = zero_pair()
    assert verify_frobenius(z).passed
    p = orthogonal_sum(number_pair(2.0), z)
    assert p.algebra.dim == 1
    assert p.algebra.blocks == [(0, 1)]
    assert verify_frobenius(p).passed
    q = orthogonal_sum(z, quaternion_pair(1.0))
    assert q.algebra.dim == 4
    assert np.allclose(q.gram(), np.diag([2.0, -2, -2, -2]))


def _pairwise_fold(pairs):
    """Reference sum: fold two-summand block-diagonal sums over the list."""
    out = pairs[0]
    for p in pairs[1:]:
        d1, d2 = out.algebra.dim, p.algebra.dim
        mul = np.zeros((d1 + d2,) * 3, dtype=complex)
        mul[:d1, :d1, :d1] = out.algebra.mul
        mul[d1:, d1:, d1:] = p.algebra.mul
        blocks = out.algebra.blocks + [(off + d1, d) for off, d in p.algebra.blocks]
        alg = FiniteAlgebra(mul, np.concatenate([out.algebra.unit, p.algebra.unit]),
                            out.algebra.labels + p.algebra.labels, blocks)
        out = FrobeniusPair(alg, np.concatenate([out.functional, p.functional]), name="sum")
    return out


def test_orthogonal_sum_list_equals_pairwise_fold():
    rng = np.random.default_rng(7)
    for n in range(1, 9):
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for pairs in (
            [number_pair(w) for w in weights],
            [quaternion_pair(np.sqrt(w)) for w in weights],
            [zero_pair()] + [quaternion_pair(w) for w in weights] + [zero_pair()],
        ):
            want = _pairwise_fold(pairs)
            want.name = "sum"
            assert pair_to_dict(orthogonal_sum_list(pairs)) == pair_to_dict(want)


def test_orthogonal_sum_list_leaves_a_single_summand_untouched():
    p = quaternion_pair(0.5, name="only")
    before = pair_to_dict(p)
    q = orthogonal_sum_list([p], name="renamed")
    assert q is not p and q.name == "renamed"
    assert pair_to_dict(p) == before
    q.algebra.mul[0, 0, 0] = 7.0
    assert p.algebra.mul[0, 0, 0] == 1.0


def test_degenerate_form_detected():
    # zero functional on a 1-dim algebra: Gram is singular
    mul = np.ones((1, 1, 1), dtype=complex)
    pair = FrobeniusPair(FiniteAlgebra(mul, [1.0]), [0.0])
    rep = verify_frobenius(pair)
    assert not rep.passed
    assert rep.margins["form_nondegeneracy"] == pytest.approx(0.0)


def test_broken_associativity_detected():
    mul = np.zeros((3, 3, 3), dtype=complex)
    for i in range(3):  # e0 is a two-sided unit
        mul[0, i, i] = 1.0
        mul[i, 0, i] = 1.0
    mul[0, 0, 0] = 1.0
    mul[1, 1, 2] = 1.0  # e1*e1 = e2
    mul[1, 2, 0] = 1.0  # e1*e2 = e0, but e2*e2 = 0: not associative
    mul[2, 1, 0] = 1.0
    pair = FrobeniusPair(FiniteAlgebra(mul, [1.0, 0.0, 0.0]), [0.0, 0.0, 1.0])
    rep = verify_frobenius(pair)
    assert rep.residuals["associativity"] > 1e-3
    assert not rep.passed


def test_blocks_must_split_structure_tensor():
    p = orthogonal_sum(number_pair(2.0), quaternion_pair(0.5))
    mul = p.algebra.mul.copy()
    mul[0, 1, 1] = 1e-300  # e_0 e_1 reaches into the quaternion block
    with pytest.raises(ValueError, match="do not split"):
        FiniteAlgebra(mul, p.algebra.unit, blocks=p.algebra.blocks)
    FiniteAlgebra(mul, p.algebra.unit)  # one whole block is always a split
    # a dense tensor is not one array per block, flat or wrapped in a list
    for dense in (complex_to_json(mul.reshape(-1)), [complex_to_json(mul.reshape(-1))]):
        d = pair_to_dict(p)
        d["structure"] = dense
        with pytest.raises(ValueError, match="one array per block"):
            pair_from_dict(d)
    d = pair_to_dict(p)
    d["blocks"] = [[0, 1], [1, 3]]  # the quaternion cube does not fit a 3-block
    with pytest.raises(ValueError, match="needs 27 entries"):
        pair_from_dict(d)
    for blocks in ([(0, 2), (1, 4)], [(0, 1), (1, 5)], [(0, 0), (0, 5)]):
        with pytest.raises(ValueError, match="disjoint slices"):
            FiniteAlgebra(p.algebra.mul, p.algebra.unit, blocks=blocks)
        d = pair_to_dict(p)
        d["blocks"] = [list(b) for b in blocks]
        with pytest.raises(ValueError, match="disjoint slices"):
            pair_from_dict(d)


def test_pair_from_dict_needs_one_cube_per_block():
    p = orthogonal_sum(number_pair(2.0), quaternion_pair(0.5))
    good = pair_to_dict(p)
    quat = good["structure"][1]
    bad_structures = {
        "one array per block": ([good["structure"][0]], good["structure"] + [quat], []),
        "needs 64 entries": (
            [good["structure"][0], quat[:-1]],
            [good["structure"][0], quat + quat[:1]],
            [good["structure"][0], np.asarray(quat).reshape(4, 4, 4, 2).tolist()],
        ),
        "needs 1 entries": ([quat, quat],),
    }
    for message, structures in bad_structures.items():
        for structure in structures:
            d = dict(good, structure=structure)
            with pytest.raises(ValueError, match=message):
                pair_from_dict(d)
    with pytest.raises(KeyError):
        pair_from_dict({k: v for k, v in good.items() if k != "blocks"})


def test_nan_in_one_block_fails_associativity():
    p = orthogonal_sum_list([number_pair(1.0), quaternion_pair(0.5), number_pair(2.0)])
    mul = p.algebra.mul.copy()
    mul[2, 3, 4] = np.nan  # inside the quaternion block, which is not the last
    pair = FrobeniusPair(
        FiniteAlgebra(mul, p.algebra.unit, blocks=p.algebra.blocks), p.functional
    )
    assert np.isnan(pair.algebra.associator_residual())
    rep = verify_frobenius(pair)
    assert np.isnan(rep.residuals["associativity"])
    assert not rep.passed


def test_m2_quaternion_isomorphism():
    psi, residual = m2_quaternion_isomorphism()
    assert residual < 1e-12
    quat = quaternion_pair(0.3 - 0.8j)
    mat = matrix_pair(2, 0.3 - 0.8j)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = psi @ mat.algebra.multiply(x, y)
        rhs = quat.algebra.multiply(psi @ x, psi @ y)
        assert np.allclose(lhs, rhs, atol=1e-12)
        # trace functionals agree through the map
        assert quat.apply(psi @ x) == pytest.approx(mat.apply(x), abs=1e-12)
    assert np.allclose(psi @ mat.algebra.unit, quat.algebra.unit)
    # frozen images: E11 = (1 + iI)/2, E12 = -(J + iK)/2 as quaternions
    assert np.allclose(psi[:, 0], [0.5, 0.5j, 0, 0])
    assert np.allclose(psi[:, 1], [0, 0, -0.5, -0.5j])
    assert np.allclose(psi[:, 2], [0, 0, 0.5, -0.5j])
    assert np.allclose(psi[:, 3], [0.5, -0.5j, 0, 0])


def test_json_round_trip():
    p = orthogonal_sum(quaternion_pair(1j), number_pair(3.0), name="mix")
    d = pair_to_dict(p)
    assert d["dim"] == 5
    # one flattened cube per block, in block order: 4^3 then 1^3 entries
    assert [len(cube) for cube in d["structure"]] == [64, 1]
    assert all(len(entry) == 2 for cube in d["structure"] for entry in cube)
    q = pair_from_dict(d)
    assert q.name == "mix"
    assert np.allclose(q.algebra.mul, p.algebra.mul)
    assert np.allclose(q.functional, p.functional)
    assert q.algebra.blocks == p.algebra.blocks
    x = json_to_complex(complex_to_json(np.array([[1 + 2j, 0], [3, -1j]])))
    assert np.allclose(x, [[1 + 2j, 0], [3, -1j]])


def _block_layout_pairs():
    from lgcardy.bundle import corrupt_model
    from lgcardy.landau_ginzburg import build_quaternion_model

    yield orthogonal_sum(number_pair(2.0 - 1j), quaternion_pair(0.5 + 0.25j), name="1+4")
    yield zero_pair()
    yield matrix_pair(2, 0.3 - 0.8j)
    # the t_symmetry bump spans bulk blocks 0 and 1, so the corrupted bulk
    # is declared as one block
    model = build_quaternion_model(n=3, a=(0.4, -0.9 + 0.2j, 0.3))
    yield corrupt_model(model, "t_symmetry").a


def test_block_layout_round_trip_is_exact():
    import json

    for p in _block_layout_pairs():
        d = json.loads(json.dumps(pair_to_dict(p)))
        # only the cubes of the blocks are written: sum of d^3 entries
        assert sum(len(cube) for cube in d["structure"]) == sum(b**3 for _, b in p.algebra.blocks)
        q = pair_from_dict(d)
        assert q.algebra.blocks == p.algebra.blocks
        assert q.algebra.labels == p.algebra.labels and q.name == p.name
        assert np.array_equal(q.algebra.mul, p.algebra.mul)
        assert np.array_equal(q.algebra.unit, p.algebra.unit)
        assert np.array_equal(q.functional, p.functional)
    assert [b for _, b in p.algebra.blocks] == [3]  # the corrupted bulk
