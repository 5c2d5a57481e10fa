"""Tests for algebra construction and Frobenius pair verification."""

import json

import numpy as np
import pytest

from lgcardy.frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    _dense,
    _worst,
    _worst_row,
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
)
from lgcardy.cli import main
from lgcardy.moduli import flat_chart


def dense(alg):
    """The (dim, dim, dim) structure tensor of ``alg``, as a new array."""
    return _dense(alg.stacks, alg.dim)


def _zero_pair():
    """The zero dimensional pair, a trivial boundary part."""
    alg = FiniteAlgebra(np.zeros((0, 0, 0)), np.zeros(0), labels=[], blocks=[])
    return FrobeniusPair(alg, np.zeros(0), name="zero")


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


def test_worst_is_the_one_reduction_rule():
    assert _worst([]) == 0.0 and _worst([np.zeros((2, 0))]) == 0.0
    assert type(_worst([np.ones(2)])) is float
    assert _worst([np.array([1.0, -3.0]), np.array([2j])]) == 3.0
    # a NaN in the second array wins over a larger finite entry in the first
    assert np.isnan(_worst([np.array([5.0, -7.0]), np.array([1.0, np.nan])]))
    # with axis, a stacked check keeps its point axis
    stack = np.zeros((3, 2, 2))
    stack[1, 0, 1], stack[2, 1, 1] = -4.0, np.nan
    rows = _worst([stack, np.ones((3, 2, 2))], axis=(-2, -1))
    assert rows.shape == (3,) and rows[:2].tolist() == [1.0, 4.0] and np.isnan(rows[2])


def test_worst_row_is_the_first_nan_else_the_first_extreme():
    assert _worst_row(np.array([1.0, 3.0, 3.0, 0.5])) == 1
    assert _worst_row(np.array([1.0, 0.5, 3.0, 0.5]), np.argmin) == 1
    assert _worst_row(np.array([1.0, np.nan, 3.0, np.nan])) == 1
    assert _worst_row(np.array([3.0, 1.0, np.nan]), np.argmin) == 2
    assert _worst_row(np.float64(2.0)) == 0  # a value shared by every row
    # a row within about 128 ulps of the extreme ties with it, and the
    # first of the tied rows wins, so rounding alone does not move it
    eps = np.finfo(float).eps
    assert _worst_row(np.array([1.0, 3.0, 3.0 * (1 + 100 * eps), 0.5])) == 1
    assert _worst_row(np.array([1.0, 3.0, 3.0 * (1 + 200 * eps), 0.5])) == 2
    assert _worst_row(np.array([1.0, 0.5, 0.5 * (1 - 100 * eps)]), np.argmin) == 1
    assert _worst_row(np.array([1.0, 0.5, 0.5 * (1 - 200 * eps)]), np.argmin) == 2
    assert _worst_row(np.array([3.0 * (1 + 100 * eps), np.nan, 3.0])) == 1
    # an extreme of 0 or inf ties only exactly
    assert _worst_row(np.array([5e-324, 0.0, 0.0]), np.argmin) == 1
    assert _worst_row(np.array([0.0, 0.0])) == 0
    assert _worst_row(np.array([1e308, np.inf, np.inf])) == 1
    assert _worst_row(np.array([np.inf, 1e308]), np.argmin) == 1


@pytest.mark.parametrize("count", (3, 4))
def test_stacked_functionals_report_the_worst_row(count):
    # row k is k l + 0.1 (k - 1) l_I on the quaternions: a nonzero l(I)
    # makes l(JK) = -l(KJ), so each row has its own symmetry defect and
    # margin; count 4 equals the dimension, where a transpose of the
    # whole stack still broadcasts
    quat = quaternion_pair(1.0)
    rows = np.array([k * quat.functional + 0.1 * (k - 1) * np.eye(4)[1]
                     for k in range(1, count + 1)])
    stacked = verify_frobenius(FrobeniusPair(quat.algebra, rows))
    each = [verify_frobenius(FrobeniusPair(quat.algebra, row)) for row in rows]
    residuals, margins = stacked.entries()
    for row in residuals:
        assert row["value"] == max(rep.residuals[row["name"]] for rep in each)
    for row in margins:
        assert row["value"] == min(rep.margins[row["name"]] for rep in each)
    assert all(type(v) is float for v in (*stacked.residuals.values(),
                                          *stacked.margins.values()))
    assert stacked.residuals["form_symmetry"] > 0 and not stacked.passed


def test_number_pair():
    p = number_pair(0.5)
    rep = verify_frobenius(p, commutative=True)
    assert rep.passed
    assert p.gram()[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="degenerate functional"):
        number_pair(0.0)
    with pytest.raises(ValueError, match="trace scale must be nonzero"):
        matrix_pair(2, 0)
    with pytest.raises(ValueError, match="scale must be nonzero"):
        quaternion_pair(0)


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


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matrix_pair_equals_the_loop_it_replaced(m):
    d = m * m
    mul = np.zeros((d, d, d), dtype=complex)
    for k in range(m):
        for r in range(m):
            for l in range(m):
                for s in range(m):
                    if r == l:
                        mul[k * m + r, l * m + s, k * m + s] = 1.0
    unit = np.zeros(d, dtype=complex)
    for k in range(m):
        unit[k * m + k] = 1.0
    p = matrix_pair(m, 0.7 - 0.2j)
    assert np.array_equal(dense(p.algebra), mul)
    assert np.array_equal(p.algebra.unit, unit)
    assert np.array_equal(p.functional, (0.7 - 0.2j) * unit)


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
    with pytest.raises(ValueError, match="need at least one summand"):
        orthogonal_sum_list([])


def test_orthogonal_sum_with_zero_dim():
    z = _zero_pair()
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
        mul[:d1, :d1, :d1] = dense(out.algebra)
        mul[d1:, d1:, d1:] = dense(p.algebra)
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
            [_zero_pair()] + [quaternion_pair(w) for w in weights] + [_zero_pair()],
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
    # the sum must not share the summand's cubes
    q.algebra.stacks[0][1][0, 0, 0, 0] = 7.0
    assert dense(p.algebra)[0, 0, 0] == 1.0 and pair_to_dict(p) == before


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
    mul = dense(p.algebra)
    mul[0, 1, 1] = 1e-300  # e_0 e_1 reaches into the quaternion block
    with pytest.raises(ValueError, match="do not split"):
        FiniteAlgebra(mul, p.algebra.unit, blocks=p.algebra.blocks)
    FiniteAlgebra(mul, p.algebra.unit)  # one whole block is always a split
    # the tensor must be a cube, the unit and the functional of its dimension
    with pytest.raises(ValueError, match="must be d x d x d"):
        FiniteAlgebra(mul[:, :, :4], p.algebra.unit)
    with pytest.raises(ValueError, match="unit has wrong length"):
        FiniteAlgebra(mul, p.algebra.unit[:4])
    with pytest.raises(ValueError, match="functional has wrong length"):
        FrobeniusPair(p.algebra, p.functional[:4])
    # a dense tensor is not one array per block, flat or wrapped in a list
    for whole in (complex_to_json(mul.reshape(-1)), [complex_to_json(mul.reshape(-1))]):
        d = pair_to_dict(p)
        d["structure"] = whole
        with pytest.raises(ValueError, match="one array per block"):
            pair_from_dict(d)
    d = pair_to_dict(p)
    d["blocks"] = [[0, 1], [1, 3]]  # the quaternion cube does not fit a 3-block
    with pytest.raises(ValueError, match="needs 27 entries"):
        pair_from_dict(d)
    for blocks in ([(0, 2), (1, 4)], [(0, 1), (1, 5)], [(0, 0), (0, 5)]):
        with pytest.raises(ValueError, match="disjoint slices"):
            FiniteAlgebra(dense(p.algebra), p.algebra.unit, blocks=blocks)
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
    # the algebra reads its dimension off the unit, so only this check holds
    # the unit to the declared dim
    with pytest.raises(ValueError, match="unit has wrong length"):
        pair_from_dict(dict(good, unit=good["unit"][:-1]))


def test_nan_in_one_block_fails_associativity():
    p = orthogonal_sum_list([number_pair(1.0), quaternion_pair(0.5), number_pair(2.0)])
    mul = dense(p.algebra)
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
    assert np.allclose(dense(q.algebra), dense(p.algebra))
    assert np.allclose(q.functional, p.functional)
    assert q.algebra.blocks == p.algebra.blocks
    x = json_to_complex(complex_to_json(np.array([[1 + 2j, 0], [3, -1j]])))
    assert np.allclose(x, [[1 + 2j, 0], [3, -1j]])
    # numpy would read True as 1, alone or beside a number
    for bad in ([[1, 2, 3]], [["a", "b"]], [[True, False]], [[True, 1.5]], [[0.5, 1], [False, 2]]):
        with pytest.raises(ValueError, match=r"expected trailing \[re, im\] pairs"):
            json_to_complex(bad)


def test_dense_blocks_must_be_integers():
    # int() would have read 1.9 as the block (0, 1); numpy integers are integers
    for blocks in ([(0, 1.9)], [(0, "1")], [(0, True)], [(np.float64(0), 1)]):
        with pytest.raises(ValueError, match="block entries must be integers"):
            FiniteAlgebra(np.ones((1, 1, 1)), np.ones(1), blocks=blocks)
    algebra = FiniteAlgebra(np.ones((1, 1, 1)), np.ones(1), blocks=[(np.int64(0), np.int32(1))])
    assert algebra.blocks == [(0, 1)] and type(algebra.blocks[0][1]) is int


# each file field that int() would have truncated is refused, naming it
@pytest.mark.parametrize("change, message", [
    ({"dim": 1.7}, "dim must be an integer of at least 0, got 1.7"),
    ({"dim": True}, "dim must be an integer of at least 0, got True"),
    ({"blocks": [[0, 1.9]]}, "block entry must be an integer of at least 0, got 1.9"),
    ({"blocks": [["0", 1]]}, "block entry must be an integer of at least 0, got '0'"),
])
def test_pair_fields_are_checked_where_read(change, message):
    with pytest.raises(ValueError, match=message):
        pair_from_dict(dict(pair_to_dict(number_pair(2.0)), **change))


SERIES_FILE = {"n": 2, "m": 0, "truncation": 4,
               "terms": [{"t": [1, 2], "s": [], "coeff": [1.0, 0.0]}]}


@pytest.mark.parametrize("change, message", [
    ({"terms": [{"t": [1.7, 2], "s": [], "coeff": [1.0, 0.0]}]},
     "t letter must be an integer of at least 1, got 1.7"),
    ({"terms": [{"t": [True, 2], "s": [], "coeff": [1.0, 0.0]}]},
     "t letter must be an integer of at least 1, got True"),
    ({"n": 2.9}, "n must be an integer of at least 0, got 2.9"),
    ({"m": 0.5}, "m must be an integer of at least 0, got 0.5"),
    ({"truncation": "4"}, "truncation must be an integer of at least 0, got '4'"),
    ({"terms": [{"t": [1, 2], "s": [], "coeff": [True, False]}]}, "expected trailing [re, im]"),
    ({"terms": [{"t": [1, 2], "s": [], "coeff": [True, 0.5]}]}, "expected trailing [re, im]"),
])
def test_series_file_fields_are_checked_where_read(tmp_path, capsys, change, message):
    series_file = tmp_path / "series.json"
    series_file.write_text(json.dumps(dict(SERIES_FILE, **change)))
    assert main(["ext-wdvv", "--input", str(series_file)]) == 2
    err = capsys.readouterr().err
    assert "bad series file" in err and message in err


def test_complex_to_json_matches_stacked_parts():
    """The float view against the real and imaginary parts stacked on a
    last axis, on scalars, empty and non-contiguous arrays and special
    parts; repr tells -0.0 from 0.0 and a numpy scalar from a float."""
    def stacked(x):
        arr = np.asarray(x, dtype=complex)
        return np.stack([arr.real, arr.imag], axis=-1).tolist()

    nan, inf = float("nan"), float("inf")
    chart = flat_chart(n=3, a=(0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.4j))
    special = np.array([complex(nan, -0.0), complex(inf, -inf), complex(-0.0, nan), -0.0])
    cases = [1 + 2j, complex(-0.0, -inf), 3, np.array(2 - 3j), np.array(-0.0), [], np.zeros((2, 0)),
             np.arange(6.0).reshape(2, 3), chart.t, chart.t[::-1], chart.tangents[::-1],
             chart.tangents[:, ::2], special, special.reshape(2, 2).T]
    assert not chart.t[::-1].flags.c_contiguous
    for x in cases:
        assert repr(complex_to_json(x)) == repr(stacked(x))


def _block_layout_pairs():
    from lgcardy.bundle import corrupt_model
    from lgcardy.landau_ginzburg import build_quaternion_model

    yield orthogonal_sum(number_pair(2.0 - 1j), quaternion_pair(0.5 + 0.25j), name="1+4")
    yield _zero_pair()
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
        assert np.array_equal(dense(q.algebra), dense(p.algebra))
        assert np.array_equal(q.algebra.unit, p.algebra.unit)
        assert np.array_equal(q.functional, p.functional)
    assert [b for _, b in p.algebra.blocks] == [3]  # the corrupted bulk


def _constructed_algebras():
    """(label, algebra, its blocks in basis order) for every constructor."""
    from lgcardy.bundle import CORRUPTIONS, corrupt_model
    from lgcardy.landau_ginzburg import build_quaternion_model

    p = orthogonal_sum(number_pair(2.0), quaternion_pair(0.5))
    yield "dense", FiniteAlgebra(dense(p.algebra), p.algebra.unit), [(0, 5)]
    yield "dense, out of order", FiniteAlgebra(dense(p.algebra), p.algebra.unit,
                                               blocks=[(1, 4), (0, 1)]), [(0, 1), (1, 4)]
    yield "zero", _zero_pair().algebra, []
    yield "matrix", matrix_pair(3, 0.5).algebra, [(0, 9)]
    mixed = orthogonal_sum_list([quaternion_pair(0.5), number_pair(2.0), matrix_pair(3, 1.0),
                                 _zero_pair(), number_pair(1j)])
    blocks = [(0, 4), (4, 1), (5, 9), (14, 1)]
    yield "sum", mixed.algebra, blocks
    yield "from dict", pair_from_dict(pair_to_dict(mixed)).algebra, blocks
    model = build_quaternion_model(n=3, a=(0.4, -0.9 + 0.2j, 0.3))
    yield "closed", model.closed.pair.algebra, [(0, 3)]
    ones, quaternions = [(0, 1), (1, 1), (2, 1)], [(0, 4), (4, 4), (8, 4)]
    yield "bulk", model.cf.a.algebra, ones
    yield "boundary", model.cf.b.algebra, quaternions
    for corruption in CORRUPTIONS + ("phi_swap",):
        cf = corrupt_model(model, corruption)
        yield corruption, cf.a.algebra, [(0, 3)] if corruption == "t_symmetry" else ones
        yield corruption, cf.b.algebra, quaternions


def test_blocks_are_the_stacks_offsets():
    for label, alg, blocks in _constructed_algebras():
        assert alg.blocks == blocks, label
        rows = [row for index, _ in alg.stacks for row in index.tolist()]
        assert sorted((row[0], len(row)) for row in rows) == blocks, label
        # every index row is the slice of the basis that its block names
        assert all(row == list(range(row[0], row[0] + len(row))) for row in rows), label
        assert [off for off, _ in alg.cubes()] == [off for off, _ in blocks], label


def test_blocks_declared_out_of_order_are_reported_in_basis_order():
    p = orthogonal_sum(number_pair(2.0), quaternion_pair(0.5))
    alg = FiniteAlgebra(dense(p.algebra), p.algebra.unit, blocks=[(1, 4), (0, 1)])
    assert alg.blocks == [(0, 1), (1, 4)]
    d = pair_to_dict(FrobeniusPair(alg, p.functional))
    assert d["blocks"] == [[0, 1], [1, 4]]
    assert [len(cube) for cube in d["structure"]] == [1, 64]
    # a payload with its blocks out of order reads back in basis order
    q = pair_from_dict(dict(d, blocks=d["blocks"][::-1], structure=d["structure"][::-1]))
    assert q.algebra.blocks == [(0, 1), (1, 4)]
    assert pair_to_dict(q) == d
    assert np.array_equal(dense(q.algebra), dense(p.algebra))
