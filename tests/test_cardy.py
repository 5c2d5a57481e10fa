"""Tests for bulk-boundary pairs and commutative decomposition."""

import json
import tracemalloc

import numpy as np
import pytest

from lgcardy.bundle import CORRUPTIONS, corrupt_model
from lgcardy.cardy import (
    CardyFrobeniusAlgebra,
    _cardy_checks,
    _coordinate_route,
    _trace_route,
    cf_from_dict,
    cf_to_dict,
    decompose_commutative,
    matrix_cf,
    quaternionic_cf,
    verify_cardy_frobenius,
)
from lgcardy.frobenius import (
    FiniteAlgebra,
    FrobeniusPair,
    VerificationReport,
    _worst,
    complex_to_json,
    nondegeneracy_margin,
    number_pair,
    orthogonal_sum,
    pair_to_dict,
    quaternion_pair,
    verify_frobenius,
)
from lgcardy.landau_ginzburg import build_closed, build_quaternion_model
from lgcardy.polycore import EQ_TOL, DegenerateModelError

from test_frobenius import dense


def _zero_pair():
    """The zero dimensional pair, a trivial boundary part."""
    alg = FiniteAlgebra(np.zeros((0, 0, 0)), np.zeros(0), labels=[], blocks=[])
    return FrobeniusPair(alg, np.zeros(0), name="zero")


def orthogonal_sum_cf(c1, c2, name=None):
    """Blockwise direct sum of two Cardy pairs."""
    a = orthogonal_sum(c1.a, c2.a)
    b = orthogonal_sum(c1.b, c2.b)
    phi = np.zeros((b.algebra.dim, a.algebra.dim), dtype=complex)
    d_b1, d_a1 = c1.phi.shape
    phi[:d_b1, :d_a1] = c1.phi
    phi[d_b1:, d_a1:] = c2.phi
    return CardyFrobeniusAlgebra(a, b, phi, name=name or ("%s+%s" % (c1.name, c2.name)))


def _right_action_matrix(alg, y):
    """Matrix of right multiplication by y in the basis."""
    return np.einsum("j,ijk->ki", y, dense(alg))


def _phi_star(cf):
    """The adjoint of phi for the two forms: solves G_A X = phi^T G_B."""
    return np.linalg.solve(cf.a.gram(), cf.phi.T @ cf.b.gram())


def _seeded_model(n, seed=0):
    """A quaternion model at n with seeded random coefficients."""
    rng = np.random.default_rng(100 + 10 * n + seed)
    while True:
        a = rng.uniform(-2, 2, n) + 1j * rng.uniform(-1, 1, n)
        try:
            return build_quaternion_model(n=n, a=tuple(a))
        except (DegenerateModelError, ValueError):
            continue


def _three_einsum_coordinates(cf):
    """The coordinate route as three dense einsums over m^4 intermediates
    (the contraction the O(m^4) order replaced), kept as the reference.
    The path search only reorders the sums of each einsum."""
    ga_inv = np.linalg.inv(cf.a.gram())
    gb_inv = np.linalg.inv(cf.b.gram())
    mulb = dense(cf.b.algebra)
    lb = cf.b.functional
    m1 = np.einsum("bi,bkc,c->ik", cf.phi, mulb, lb, optimize=True)
    lhs = m1.T @ ga_inv @ m1
    triple = np.einsum("ksc,cld->ksld", mulb, mulb, optimize=True)
    quad = np.einsum("ksld,dre,e->kslr", triple, mulb, lb, optimize=True)
    rhs = np.einsum("rs,kslr->kl", gb_inv, quad, optimize=True)
    return float(np.max(np.abs(lhs - rhs)))


def test_quaternionic_block_passes():
    cf = quaternionic_cf(0.7)
    rep = verify_cardy_frobenius(cf)
    assert rep.passed, rep.summary()
    # transfer of the boundary unit is 2/rho times the bulk unit
    ps = _phi_star(cf)
    assert ps.shape == (1, 4)
    assert ps[0, 0] == pytest.approx(2.0 / 0.7)
    assert np.allclose(ps[0, 1:], 0.0)


def test_quaternionic_block_trace_values():
    rho = 0.7
    cf = quaternionic_cf(rho)
    alg = cf.b.algebra
    # trace of b -> 1 b 1 is the dimension, 4
    one = alg.unit
    tr = np.trace(alg.left_action_matrix(one) @ _right_action_matrix(alg, one))
    assert tr == pytest.approx(4.0)
    # and the bulk side gives the same: rho^2 (2/rho)^2 = 4
    ps = _phi_star(cf)
    lhs = (ps.T @ cf.a.gram() @ ps)[0, 0]
    assert lhs == pytest.approx(4.0)
    # mixed pair (I, 1): both sides vanish
    I = np.array([0, 1, 0, 0], dtype=complex)
    tr_i = np.trace(alg.left_action_matrix(I) @ _right_action_matrix(alg, one))
    assert abs(tr_i) < 1e-14


def test_matrix_block_passes():
    for m in (2, 3):
        cf = matrix_cf(m, 0.4 - 1.1j)
        rep = verify_cardy_frobenius(cf)
        assert rep.passed, rep.summary()
        assert rep.residuals["cardy_trace"] < 1e-12
        assert rep.residuals["cardy_coordinate"] < 1e-12


def test_trace_and_coordinate_routes_agree():
    for cf in (quaternionic_cf(1.3 + 0.2j), matrix_cf(2, 0.9)):
        rep = verify_cardy_frobenius(cf)
        r1, r2 = rep.residuals["cardy_trace"], rep.residuals["cardy_coordinate"]
        assert abs(r1 - r2) < 1e-10


def test_coordinate_route_matches_three_einsum_formula():
    for n in range(2, 9):
        model = _seeded_model(n)
        for cf in [model.cf] + [corrupt_model(model, c) for c in CORRUPTIONS]:
            old = _three_einsum_coordinates(cf)
            new = verify_cardy_frobenius(cf).residuals["cardy_coordinate"]
            assert abs(new - old) <= 1e-12 * max(1.0, old), (n, cf.name, old, new)


def test_coordinate_route_memory_at_n8():
    cf = _seeded_model(8).cf
    ga, gb = cf.a.gram(), cf.b.gram()
    _worst([_coordinate_route(cf, ga, gb)])
    tracemalloc.start()
    try:
        _worst([_coordinate_route(cf, ga, gb)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the dense three-einsum order holds two m^4 tensors, about 33 MB at m = 32
    assert peak < 4e6, peak


def test_routes_agree_at_n7_and_n8():
    for n in (7, 8):
        rep = verify_cardy_frobenius(_seeded_model(n).cf)
        assert rep.passed, rep.summary()
        gap = abs(rep.residuals["cardy_trace"] - rep.residuals["cardy_coordinate"])
        assert gap < 1e-10


def test_t_symmetry_corruption_keeps_bulk_associativity():
    # the bump e_0 e_1 += eps e_0 spans two bulk blocks, and the
    # associator (e_0 e_1) e_0 - e_0 (e_1 e_0) = eps e_0 must still show
    for n in (2, 3, 5):
        cf = corrupt_model(_seeded_model(n), "t_symmetry")
        rep = verify_frobenius(cf.a, commutative=True)
        assert rep.residuals["associativity"] == pytest.approx(0.05, rel=1e-9)
        assert rep.residuals["commutativity"] == pytest.approx(0.05, rel=1e-9)


def test_wrong_scale_fails_cardy_only():
    # bulk scale rho^3 instead of rho^2 breaks the transfer identity
    rho = 2.0
    phi = np.zeros((4, 1), dtype=complex)
    phi[0, 0] = 1.0
    cf = CardyFrobeniusAlgebra(number_pair(rho**3), quaternion_pair(rho), phi)
    rep = verify_cardy_frobenius(cf)
    assert not rep.passed
    assert rep.residuals["cardy_trace"] == pytest.approx(2.0)
    assert rep.residuals["cardy_coordinate"] == pytest.approx(2.0)
    for key in ("commutativity", "homomorphism", "unit_preservation", "centrality"):
        assert rep.residuals[key] < 1e-12


def test_noncentral_image_detected():
    # diagonal matrices inside M2 map by inclusion: a homomorphism with
    # non-central image
    mul = np.zeros((2, 2, 2), dtype=complex)
    mul[0, 0, 0] = 1.0
    mul[1, 1, 1] = 1.0
    a = FrobeniusPair(FiniteAlgebra(mul, [1.0, 1.0]), [1.0, 1.0])
    from lgcardy.frobenius import matrix_pair

    b = matrix_pair(2, 1.0)
    phi = np.zeros((4, 2), dtype=complex)
    phi[0, 0] = 1.0  # e1 -> E11
    phi[3, 1] = 1.0  # e2 -> E22
    rep = verify_cardy_frobenius(CardyFrobeniusAlgebra(a, b, phi))
    assert not rep.passed
    assert rep.residuals["centrality"] > 0.5
    assert rep.residuals["homomorphism"] < 1e-12
    assert rep.residuals["unit_preservation"] < 1e-12


def test_zero_dim_boundary_is_vacuous():
    cf = CardyFrobeniusAlgebra(number_pair(3.0), _zero_pair(), np.zeros((0, 1)))
    rep = verify_cardy_frobenius(cf)
    assert rep.passed
    assert "cardy_trace" not in rep.residuals


def test_orthogonal_sum_cf():
    cf = orthogonal_sum_cf(quaternionic_cf(0.5), quaternionic_cf(1.0j))
    assert cf.a.algebra.dim == 2
    assert cf.b.algebra.dim == 8
    assert cf.phi.shape == (8, 2)
    rep = verify_cardy_frobenius(cf)
    assert rep.passed, rep.summary()
    # adding a trivial block with no boundary keeps everything valid
    trivial = CardyFrobeniusAlgebra(number_pair(2.5), _zero_pair(), np.zeros((0, 1)))
    bigger = orthogonal_sum_cf(cf, trivial)
    assert bigger.a.algebra.dim == 3
    assert bigger.b.algebra.dim == 8
    assert verify_cardy_frobenius(bigger).passed


def test_decompose_commutative_polynomial_case():
    # C[z]/(3z^2 - 3) in the basis (1, z): z*z = 1, l = (0, 1/3)
    mul = np.zeros((2, 2, 2), dtype=complex)
    mul[0, 0, 0] = 1.0
    mul[0, 1, 1] = 1.0
    mul[1, 0, 1] = 1.0
    mul[1, 1, 0] = 1.0
    pair = FrobeniusPair(FiniteAlgebra(mul, [1.0, 0.0]), [0.0, 1.0 / 3.0])
    idems, weights = decompose_commutative(pair)
    assert np.allclose(sorted(weights.real), [-1.0 / 6.0, 1.0 / 6.0])
    # the idempotents are (1 -+ z)/2
    for e, w in zip(idems, weights):
        expect = np.array([0.5, 0.5]) if w.real > 0 else np.array([0.5, -0.5])
        assert np.allclose(e, expect, atol=1e-10)


def test_decompose_rejects_nilpotents():
    # C[z]/(z^2): Frobenius but not semisimple
    mul = np.zeros((2, 2, 2), dtype=complex)
    mul[0, 0, 0] = 1.0
    mul[0, 1, 1] = 1.0
    mul[1, 0, 1] = 1.0
    pair = FrobeniusPair(FiniteAlgebra(mul, [1.0, 0.0]), [0.0, 1.0])
    with pytest.raises(ValueError, match="not semisimple"):
        decompose_commutative(pair)


def test_decompose_rebuild_gram():
    # random change of basis on a sum of five 1-dim blocks, then recover
    rng = np.random.default_rng(11)
    d = 5
    lam = rng.normal(size=d) + 1j * rng.normal(size=d)
    s = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    s_inv = np.linalg.inv(s)
    mul = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            mul[i, j, :] = s_inv @ (s[:, i] * s[:, j])
    unit = s_inv @ np.ones(d)
    functional = lam @ s
    pair = FrobeniusPair(FiniteAlgebra(mul, unit), functional)
    idems, weights = decompose_commutative(pair, seed=3)
    assert np.allclose(
        np.sort_complex(np.asarray(weights)), np.sort_complex(lam), atol=1e-8
    )
    m = np.stack(idems, axis=1)
    rebuilt = np.linalg.inv(m).T @ np.diag(weights) @ np.linalg.inv(m)
    assert np.allclose(rebuilt, pair.gram(), atol=1e-8)


def test_cf_json_round_trip():
    cf = orthogonal_sum_cf(quaternionic_cf(0.5), matrix_cf(2, 1.5), name="two_blocks")
    d = cf_to_dict(cf)
    back = cf_from_dict(d)
    assert back.name == "two_blocks"
    assert np.allclose(back.phi, cf.phi)
    assert np.allclose(back.a.gram(), cf.a.gram())
    assert np.allclose(dense(back.b.algebra), dense(cf.b.algebra))
    assert verify_cardy_frobenius(back).passed


def test_decompose_commutative_does_not_depend_on_eq_tol():
    # the idempotent and unit-sum guards judge computability, not the
    # residual tolerance: a healthy closed algebra splits at any eq_tol
    closed = build_closed(n=3, a=(0.3 + 0.1j, -0.7 + 0.2j, 0.5 - 0.4j))
    assert [b for _, b in closed.pair.algebra.blocks] == [3]
    want = np.array(sorted(closed.mu, key=lambda w: (w.real, w.imag)))
    for eq_tol in (1e-30, 1e-9, 1e-3):
        idems, weights = decompose_commutative(closed.pair, tol=eq_tol)
        assert np.allclose(weights, want, rtol=0, atol=1e-12), eq_tol
        assert len(idems) == 3


def _dense_frobenius(pair, commutative):
    """The residuals and margin of verify_frobenius, written out on the
    dense structure tensor over every basis triple."""
    mul, dim = dense(pair.algebra), pair.algebra.dim
    left = np.einsum("ijm,mkl->ijkl", mul, mul, optimize=True)
    right = np.einsum("jkm,iml->ijkl", mul, mul, optimize=True)
    e = pair.algebra.unit
    unit_left = np.einsum("i,ijk->jk", e, mul) - np.eye(dim)
    unit_right = np.einsum("j,ijk->ik", e, mul) - np.eye(dim)
    g = np.einsum("ijk,k->ij", mul, pair.functional)
    residuals = {
        "associativity": float(np.max(np.abs(left - right))),
        "unit": float(max(np.max(np.abs(unit_left)), np.max(np.abs(unit_right)))),
        "form_symmetry": float(np.max(np.abs(g - g.T))),
    }
    if commutative:
        residuals["commutativity"] = float(np.max(np.abs(mul - mul.transpose(1, 0, 2))))
    return residuals, {"form_nondegeneracy": nondegeneracy_margin(g)}


def _dense_cardy(cf):
    """The residuals and margins of verify_cardy_frobenius, written out on
    the dense structure tensors (the formulas the block route replaced)."""
    mula, mulb, phi = dense(cf.a.algebra), dense(cf.b.algebra), cf.phi
    ga = np.einsum("ijk,k->ij", mula, cf.a.functional)
    gb = np.einsum("ijk,k->ij", mulb, cf.b.functional)
    images = np.einsum("ijc,bc->ijb", mula, phi)
    products = np.einsum("bi,cj,bcd->ijd", phi, phi, mulb, optimize=True)
    left = np.einsum("bi,bkc->ikc", phi, mulb)
    right = np.einsum("bi,kbc->ikc", phi, mulb)
    ps = np.linalg.solve(ga, phi.T @ gb)
    traces = np.einsum("kmi,ilm->kl", mulb, mulb)
    residuals = {
        "commutativity": float(np.max(np.abs(mula - mula.transpose(1, 0, 2)))),
        "homomorphism": float(np.max(np.abs(images - products))),
        "unit_preservation": float(np.max(np.abs(phi @ cf.a.algebra.unit - cf.b.algebra.unit))),
        "centrality": float(np.max(np.abs(left - right))),
        "cardy_trace": float(np.max(np.abs(ps.T @ ga @ ps - traces))),
        "cardy_coordinate": _three_einsum_coordinates(cf),
    }
    margins = {"nondegeneracy_A": nondegeneracy_margin(ga),
               "nondegeneracy_B": nondegeneracy_margin(gb)}
    return residuals, margins


def _assert_matches(rep, dense, label):
    residuals, margins = dense
    want = VerificationReport(rep.subject, rep.tol, residuals, margins)
    assert rep.residuals.keys() == residuals.keys() and rep.margins.keys() == margins.keys()
    for got, ref in ((rep.residuals, residuals), (rep.margins, margins)):
        for name, v in ref.items():
            assert abs(got[name] - v) <= 1e-12 * max(1.0, abs(v)), (label, name, got[name], v)
    flags = [[[row["pass"] for row in rows] for rows in r.entries()] for r in (rep, want)]
    assert flags[0] == flags[1], label


def _all_cfs(model):
    yield None, model.cf
    for corruption in CORRUPTIONS + ("phi_swap",):
        try:
            yield corruption, corrupt_model(model, corruption)
        except ValueError:  # this corruption needs n >= 2
            continue


@pytest.mark.parametrize("n", range(1, 9))
def test_block_routes_match_dense_formulas(n):
    for corruption, cf in _all_cfs(_seeded_model(n, seed=1)):
        label = (n, corruption)
        _assert_matches(verify_cardy_frobenius(cf), _dense_cardy(cf), label)
        _assert_matches(verify_frobenius(cf.a, commutative=True),
                        _dense_frobenius(cf.a, True), label)
        _assert_matches(verify_frobenius(cf.b), _dense_frobenius(cf.b, False), label)


def test_block_routes_match_dense_formulas_off_the_quaternion_layout():
    # blocks of mixed sizes, and a basis vector outside every block
    mixed = orthogonal_sum_cf(orthogonal_sum_cf(quaternionic_cf(0.5), matrix_cf(3, 0.2 + 1j)),
                              matrix_cf(2, -0.7))
    assert sorted({d for _, d in mixed.b.algebra.blocks}) == [4, 9]
    _assert_matches(verify_cardy_frobenius(mixed), _dense_cardy(mixed), "mixed")
    # the last bulk unit goes to E11 of the last block: not central there
    phi = mixed.phi.copy()
    phi[-4:, -1] = [1.0, 0.0, 0.0, 0.0]
    skew = CardyFrobeniusAlgebra(mixed.a, mixed.b, phi)
    assert verify_cardy_frobenius(skew).residuals["centrality"] > 0.5
    _assert_matches(verify_cardy_frobenius(skew), _dense_cardy(skew), "skew")
    _assert_matches(verify_frobenius(mixed.b), _dense_frobenius(mixed.b, False), "mixed")
    mul = np.zeros((2, 2, 2), dtype=complex)
    mul[0, 0, 0] = 1.0
    gapped = FrobeniusPair(FiniteAlgebra(mul, [1.0, 0.0], blocks=[(0, 1)]), [1.0, 1.0])
    assert gapped.algebra.unit_residual() == 1.0
    _assert_matches(verify_frobenius(gapped, commutative=True),
                    _dense_frobenius(gapped, True), "gapped")


@pytest.mark.parametrize("n", range(1, 9))
def test_payloads_match_dense_cube_formula(n):
    # the payload of every pair is the cube of the dense tensor on each
    # declared block, as the writer read it before blocks were stored
    model = _seeded_model(n)
    for pair in (model.closed.pair, model.cf.a, model.cf.b):
        mul = dense(pair.algebra)
        want = [complex_to_json(mul[o:o + d, o:o + d, o:o + d].reshape(-1))
                for o, d in pair.algebra.blocks]
        assert json.dumps(pair_to_dict(pair)["structure"]) == json.dumps(want)


def test_block_checks_memory_at_n8():
    a = _seeded_model(8).p.a
    cf = build_quaternion_model(n=8, a=a).cf
    verify_cardy_frobenius(cf)
    verify_frobenius(cf.b)
    tracemalloc.start()
    try:
        cf = build_quaternion_model(n=8, a=a).cf
        verify_cardy_frobenius(cf)
        verify_frobenius(cf.b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense (4n)^3 boundary tensor is 0.5 MB at n = 8; the dense build
    # and checks peaked at about 0.54 MB and 1.4 MB
    assert peak < 5e5, peak


def _random_stacked_cf(nan):
    """A Cardy pair on random complex cubes, blocks of 4, 9 and 4 on both
    sides, with a stack of three functionals per pair, and its Gram
    matrices; with ``nan`` one entry of both 9-blocks is NaN after the
    Gram matrices are formed, so that the routes can still solve with
    them."""
    rng = np.random.default_rng(21)
    blocks = [(0, 4), (4, 9), (13, 4)]

    def draw(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    muls = []
    for _ in range(2):
        mul = np.zeros((17, 17, 17), dtype=complex)
        for off, d in blocks:
            mul[off:off + d, off:off + d, off:off + d] = draw(d, d, d)
        muls.append(mul)
    units, functionals, phi = draw(2, 17), draw(2, 3, 17), draw(17, 17)

    def pairs():
        return [FrobeniusPair(FiniteAlgebra(mul, e, blocks=blocks), f)
                for mul, e, f in zip(muls, units, functionals)]

    ga, gb = (p.gram() for p in pairs())
    if nan:
        for mul in muls:
            mul[5, 6, 7] = np.nan
    return CardyFrobeniusAlgebra(*pairs(), phi), ga, gb


def _kernel_and_einsum(name, cf, ga, gb):
    """The block contraction as the package computes it and the same
    quantity from the einsum spec that contraction replaced, each as a
    list of arrays."""
    alg_a, alg_b, phi = cf.a.algebra, cf.b.algebra, cf.phi
    if name == "associator":
        return [alg_b.associator_residual()], [_worst([
            np.einsum("gijm,gmkl->gijkl", c, c) - np.einsum("gjkm,giml->gijkl", c, c)
            for _, c in alg_b.stacks])]
    if name == "unit":
        want = []
        for index, c in alg_b.stacks:
            e, eye = alg_b.unit[index], np.eye(c.shape[1])
            want += [np.einsum("gi,gijk->gjk", e, c) - eye, np.einsum("gj,gijk->gik", e, c) - eye]
        return [alg_b.unit_residual()], [_worst(want)]
    if name == "gram":
        return [cf.b.gram()], [alg_b.block_matrix([
            np.einsum("gijk,...gk->...gij", c, cf.b.functional[..., index])
            for index, c in alg_b.stacks])]
    if name == "trace_route":
        ps = np.linalg.solve(ga, phi.T @ gb)
        traces = [np.einsum("gkmi,gilm->gkl", c, c) for _, c in alg_b.stacks]
        return [_trace_route(cf, ga, gb)], [ps.swapaxes(-1, -2) @ ga @ ps
                                            - alg_b.block_matrix(traces)]
    if name == "coordinate_route":
        m1 = phi.T @ gb
        x = gb @ np.linalg.inv(gb)
        rhs = []
        for index, c in alg_b.stacks:
            y = np.einsum("gcld,...gds->...gcls", c, x[..., index[:, :, None], index[:, None, :]])
            rhs.append(np.einsum("gksc,...gcls->...gkl", c, y))
        return [_coordinate_route(cf, ga, gb)], [m1.swapaxes(-1, -2) @ np.linalg.inv(ga) @ m1
                                                 - alg_b.block_matrix(rhs)]
    defects = _cardy_checks(cf, EQ_TOL)[0]
    if name == "homomorphism":
        images = np.zeros((alg_a.dim, alg_a.dim, alg_b.dim), dtype=complex)
        for index, c in alg_a.stacks:
            images[index[:, :, None], index[:, None, :]] = np.einsum(
                "gijc,bgc->gijb", c, phi[:, index])
        products = np.zeros_like(images)
        for index, c in alg_b.stacks:
            left = np.einsum("gbi,gbcd->gicd", phi[index], c)
            products[:, :, index] = np.einsum("gcj,gicd->ijgd", phi[index], left)
        return defects["homomorphism"], [images - products]
    assert name == "centrality"
    return defects["centrality"], [
        np.einsum("gbi,gbkc->gikc", phi[index], c - c.transpose(0, 2, 1, 3))
        for index, c in alg_b.stacks]


@pytest.mark.parametrize("nan", (False, True))
@pytest.mark.parametrize("name", ("associator", "unit", "gram", "trace_route",
                                  "coordinate_route", "homomorphism", "centrality"))
def test_block_matmuls_match_their_einsum_specs(name, nan):
    # blocks of two sizes, two blocks of one size, and three functionals:
    # every axis the batched products reshape; a NaN in a cube must reach
    # the same entries along both
    cf, ga, gb = _random_stacked_cf(nan)
    got, want = _kernel_and_einsum(name, cf, ga, gb)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape, name
        scale = np.abs(np.where(np.isnan(w), 0.0, w)).max(initial=1.0)
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-13 * scale, err_msg=name)
    assert any(np.isnan(g).any() for g in got) == nan, name


def test_a_pointwise_job_runs_no_einsum(monkeypatch):
    # the model build, the corruption and the three checks of one
    # pointwise job contract every block stack with matrix products
    def refused(*args, **kwargs):
        raise AssertionError("np.einsum called")

    model = _seeded_model(4)
    monkeypatch.setattr(np, "einsum", refused)
    for corruption in (None,) + CORRUPTIONS:
        model = build_quaternion_model(n=4, a=model.p.a)
        cf = model.cf if corruption is None else corrupt_model(model, corruption)
        verify_cardy_frobenius(cf)
        verify_frobenius(cf.a, commutative=True)
        verify_frobenius(cf.b)
