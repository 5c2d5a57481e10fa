"""Finite dimensional algebras with trace functionals.

A Frobenius pair is a finite dimensional associative unital algebra
together with a linear functional whose induced bilinear form
``(x, y) = l(x * y)`` is symmetric and nondegenerate.  The module stores
algebras through their structure tensors, builds the canonical families
(one dimensional, full matrix, quaternion), glues pairs into orthogonal
sums, and verifies the axioms numerically with explicit residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycore import ToleranceConfig

__all__ = [
    "FiniteAlgebra",
    "FrobeniusPair",
    "VerificationReport",
    "number_pair",
    "zero_pair",
    "matrix_pair",
    "quaternion_pair",
    "orthogonal_sum",
    "orthogonal_sum_list",
    "verify_frobenius",
    "nondegeneracy_margin",
    "m2_quaternion_isomorphism",
    "complex_to_json",
    "json_to_complex",
    "pair_to_dict",
    "pair_from_dict",
]


def complex_to_json(x):
    """Encode a complex scalar or nested array as [re, im] pairs."""
    arr = np.asarray(x, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def json_to_complex(obj):
    """Inverse of complex_to_json."""
    arr = np.asarray(obj, dtype=float)
    if arr.shape[-1] != 2:
        raise ValueError("expected trailing [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _block_slices(blocks, dim):
    """Blocks as (offset, dim) integer pairs, refused unless they are
    disjoint slices of a basis of dimension ``dim``."""
    blocks = [(int(off), int(d)) for off, d in blocks]
    end = 0
    for off, d in sorted(blocks):
        if off < end or d < 1 or off + d > dim:
            raise ValueError("blocks must be disjoint slices of the basis")
        end = off + d
    return blocks


class FiniteAlgebra:
    """Associative unital algebra given by its structure tensor.

    ``mul[i, j, :]`` holds the coordinates of ``e_i * e_j`` in the basis,
    ``unit`` the coordinates of the identity.  ``blocks`` lists disjoint
    (offset, dim) slices of the basis that split the algebra: every
    entry of ``mul`` outside the cubes of the blocks is exactly zero,
    which the constructor checks.  Without declared blocks the whole
    algebra is the one block (0, dim).
    """

    def __init__(self, mul, unit, labels=None, blocks=None):
        self.mul = np.asarray(mul, dtype=complex)
        if self.mul.ndim != 3 or len({*self.mul.shape}) != 1:
            raise ValueError("structure tensor must be d x d x d")
        self.dim = self.mul.shape[0]
        self.unit = np.asarray(unit, dtype=complex)
        if self.unit.shape != (self.dim,):
            raise ValueError("unit has wrong length")
        self.labels = list(labels) if labels is not None else ["e%d" % i for i in range(self.dim)]
        if blocks is None:
            blocks = [(0, self.dim)] if self.dim else []
        self.blocks = _block_slices(blocks, self.dim)
        inside = sum(
            np.count_nonzero(self.mul[off:off + d, off:off + d, off:off + d])
            for off, d in self.blocks
        )
        # disjoint blocks hold every nonzero entry exactly when the counts
        # agree; NaN counts as nonzero, so it is refused outside the blocks
        if np.count_nonzero(self.mul) != inside:
            raise ValueError("blocks do not split the structure tensor")

    def multiply(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        return np.einsum("i,j,ijk->k", x, y, self.mul)

    def left_action_matrix(self, x):
        """Matrix of left multiplication by x in the basis."""
        return np.einsum("i,ijk->kj", np.asarray(x, dtype=complex), self.mul)

    def right_action_matrix(self, y):
        """Matrix of right multiplication by y in the basis."""
        return np.einsum("j,ijk->ki", np.asarray(y, dtype=complex), self.mul)

    def associator_residual(self):
        """Max norm of (e_i e_j) e_k - e_i (e_j e_k) over all basis triples.

        The blocks split the structure tensor, so both sides vanish
        exactly on a triple that spans two blocks, and each block is
        checked on its own.  A NaN in any block makes the result NaN.
        """
        worst = [0.0]
        for off, d in self.blocks:
            m = self.mul[off:off + d, off:off + d, off:off + d]
            left = np.einsum("ijm,mkl->ijkl", m, m)
            right = np.einsum("jkm,iml->ijkl", m, m)
            worst.append(np.max(np.abs(left - right)))
        return float(np.max(worst))

    def unit_residual(self):
        e = self.unit
        left = np.einsum("i,ijk->jk", e, self.mul) - np.eye(self.dim)
        right = np.einsum("j,ijk->ik", e, self.mul) - np.eye(self.dim)
        return float(max(np.max(np.abs(left)), np.max(np.abs(right))))

    def commutator_residual(self):
        return float(np.max(np.abs(self.mul - self.mul.transpose(1, 0, 2))))


@dataclass
class FrobeniusPair:
    """Algebra plus trace functional; ``functional[i] = l(e_i)``."""

    algebra: FiniteAlgebra
    functional: np.ndarray
    name: str = "pair"

    def __post_init__(self):
        self.functional = np.asarray(self.functional, dtype=complex)
        if self.functional.shape != (self.algebra.dim,):
            raise ValueError("functional has wrong length")

    def apply(self, x):
        return complex(np.dot(self.functional, np.asarray(x, dtype=complex)))

    def gram(self):
        """Matrix of the bilinear form (e_i, e_j) = l(e_i e_j)."""
        return np.einsum("ijk,k->ij", self.algebra.mul, self.functional)

    def gram_inverse(self):
        return np.linalg.inv(self.gram())

    def pairing(self, x, y):
        return self.apply(self.algebra.multiply(x, y))


@dataclass
class VerificationReport:
    """Outcome of an axiom check: named residuals that must stay at or
    below a tolerance, plus named margins that must stay above it."""

    subject: str
    tol: float
    residuals: dict = field(default_factory=dict)
    margins: dict = field(default_factory=dict)

    def entries(self):
        """``(residual rows, margin rows)``, each sorted by name, as
        ``{name, value, tol, pass}``.  This is the one pass rule: a
        residual passes at or below ``tol``, a margin above it, and a
        NaN fails both comparisons."""
        tol = float(self.tol)

        def rows(values, ok):
            return [{"name": k, "value": float(values[k]), "tol": tol,
                     "pass": bool(ok(float(values[k])))} for k in sorted(values)]

        return rows(self.residuals, lambda v: v <= tol), rows(self.margins, lambda v: v > tol)

    @property
    def passed(self):
        return all(row["pass"] for rows in self.entries() for row in rows)

    def summary(self):
        residuals, margins = self.entries()
        lines = ["%s: %s (tol %.1e)" % (self.subject, "pass" if self.passed else "FAIL", self.tol)]
        lines += ["  residual %-28s %.3e" % (r["name"], r["value"]) for r in residuals]
        lines += ["  margin   %-28s %.3e" % (r["name"], r["value"]) for r in margins]
        return "\n".join(lines)

    def to_dict(self):
        residuals, margins = self.entries()
        return {
            "subject": self.subject,
            "tol": self.tol,
            "passed": self.passed,
            "residuals": residuals,
            "margins": margins,
        }


def nondegeneracy_margin(matrix):
    """Smallest over largest singular value; 0 for a singular matrix,
    inf for an empty one (a zero dimensional form is vacuously fine) and
    NaN for one with a non-finite entry, which fails every margin test."""
    m = np.asarray(matrix, dtype=complex)
    if m.size == 0:
        return float(np.inf)
    if not np.all(np.isfinite(m)):
        return float("nan")
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[0] == 0:
        return 0.0
    return float(svals[-1] / svals[0])


def verify_frobenius(pair, tol=None, commutative=False):
    """Check the Frobenius pair axioms numerically.

    Residuals: associativity, two-sided unit, symmetry of the form
    (equivalently l vanishes on commutators), and optionally
    commutativity.  Margin: singular value ratio of the Gram matrix.
    """
    tol = tol or ToleranceConfig()
    alg = pair.algebra
    rep = VerificationReport(subject=pair.name, tol=tol.eq_tol)
    if alg.dim == 0:
        return rep
    rep.residuals["associativity"] = alg.associator_residual()
    rep.residuals["unit"] = alg.unit_residual()
    g = pair.gram()
    rep.residuals["form_symmetry"] = float(np.max(np.abs(g - g.T)))
    if commutative:
        rep.residuals["commutativity"] = alg.commutator_residual()
    rep.margins["form_nondegeneracy"] = nondegeneracy_margin(g)
    return rep


def number_pair(lam, name="number"):
    """One dimensional pair: the ground field with l(1) = lam."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("degenerate functional")
    mul = np.ones((1, 1, 1), dtype=complex)
    return FrobeniusPair(FiniteAlgebra(mul, [1.0], labels=["1"]), [lam], name=name)


def zero_pair(name="zero"):
    """The zero dimensional pair, useful as a trivial boundary part."""
    mul = np.zeros((0, 0, 0), dtype=complex)
    alg = FiniteAlgebra(mul, np.zeros(0), labels=[], blocks=[])
    return FrobeniusPair(alg, np.zeros(0), name=name)


def matrix_pair(m, mu, name=None):
    """Full m x m matrix algebra with l = mu * trace.

    Basis is E[k, r] flattened row-major; E[k, r] E[l, s] = delta_{rl} E[k, s].
    """
    mu = complex(mu)
    if mu == 0:
        raise ValueError("trace scale must be nonzero")
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
    functional = mu * unit.copy()
    labels = ["E%d%d" % (k + 1, r + 1) for k in range(m) for r in range(m)]
    return FrobeniusPair(
        FiniteAlgebra(mul, unit, labels=labels),
        functional,
        name=name or ("matrix%d" % m),
    )


def _quaternion_table():
    """Structure tensor of the quaternions in the basis (1, I, J, K)."""
    mul = np.zeros((4, 4, 4), dtype=complex)
    # products of the imaginary units; 0 is the real unit
    mul[0, 0, 0] = 1.0
    for i in (1, 2, 3):
        mul[0, i, i] = 1.0
        mul[i, 0, i] = 1.0
        mul[i, i, 0] = -1.0
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (i, j), k in cyc.items():
        mul[i, j, k] = 1.0
        mul[j, i, k] = -1.0
    return mul


def quaternion_pair(rho, name=None):
    """Quaternion algebra over the complex field with l(1) = 2 rho and
    l(I) = l(J) = l(K) = 0.  The Gram matrix is rho * diag(2, -2, -2, -2)."""
    rho = complex(rho)
    if rho == 0:
        raise ValueError("scale must be nonzero")
    functional = np.array([2.0 * rho, 0, 0, 0], dtype=complex)
    return FrobeniusPair(
        FiniteAlgebra(_quaternion_table(), [1, 0, 0, 0], labels=["1", "I", "J", "K"]),
        functional,
        name=name or "quaternion",
    )


def orthogonal_sum(p1, p2, name=None):
    """Direct sum of two Frobenius pairs: block diagonal multiplication,
    unit and functional concatenated.  Either summand may have dimension
    zero, in which case the other comes back unchanged apart from block
    bookkeeping.  Existing block lists are merged flat, so folding the
    sum over a list keeps one block per original summand."""
    d1, d2 = p1.algebra.dim, p2.algebra.dim
    total = d1 + d2
    mul = np.zeros((total, total, total), dtype=complex)
    mul[:d1, :d1, :d1] = p1.algebra.mul
    mul[d1:, d1:, d1:] = p2.algebra.mul
    unit = np.concatenate([p1.algebra.unit, p2.algebra.unit])
    functional = np.concatenate([p1.functional, p2.functional])
    labels = list(p1.algebra.labels) + list(p2.algebra.labels)
    blocks = list(p1.algebra.blocks) + [(off + d1, d) for off, d in p2.algebra.blocks]
    return FrobeniusPair(
        FiniteAlgebra(mul, unit, labels=labels, blocks=blocks),
        functional,
        name=name or ("%s+%s" % (p1.name, p2.name)),
    )


def orthogonal_sum_list(pairs, name="sum"):
    """Fold orthogonal_sum over a nonempty list of pairs."""
    if not pairs:
        raise ValueError("need at least one summand")
    out = pairs[0]
    for p in pairs[1:]:
        out = orthogonal_sum(out, p)
    out.name = name
    return out


def m2_quaternion_isomorphism():
    """Linear map identifying the 2 x 2 matrices with the quaternions.

    Returns ``(psi, residual)`` where psi is the 4 x 4 matrix sending
    matrix coordinates in the basis (E11, E12, E21, E22), row-major, to
    quaternion coordinates in the basis (1, I, J, K).  The residual is
    the worst defect of multiplicativity over all basis pairs together
    with the functional match, comparing the matrix pair of trace scale
    mu against the quaternion pair of scale rho = mu.
    """
    # images of 1, I, J, K as 2 x 2 matrices, flattened row-major
    one = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    I = np.array([[-1j, 0.0], [0.0, 1j]], dtype=complex)
    J = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    K = np.array([[0.0, 1j], [1j, 0.0]], dtype=complex)
    quat_to_mat = np.stack([one.ravel(), I.ravel(), J.ravel(), K.ravel()], axis=1)
    psi = np.linalg.inv(quat_to_mat)
    mat = matrix_pair(2, 1.0)
    quat = quaternion_pair(1.0)
    residual = 0.0
    for i in range(4):
        for j in range(4):
            x = np.zeros(4, dtype=complex)
            y = np.zeros(4, dtype=complex)
            x[i] = 1.0
            y[j] = 1.0
            xy = mat.algebra.multiply(x, y)
            defect = quat.algebra.multiply(psi @ x, psi @ y) - psi @ xy
            residual = max(residual, float(np.max(np.abs(defect))))
        ei = np.zeros(4, dtype=complex)
        ei[i] = 1.0
        residual = max(residual, abs(quat.apply(psi @ ei) - mat.apply(ei)))
    return psi, residual


def pair_to_dict(pair):
    """JSON-compatible encoding of a Frobenius pair.

    ``structure`` holds one array per entry of ``blocks``, in the same
    order: the d x d x d cube of the structure tensor on that block,
    flattened row-major, entries as [re, im].  Entries outside the
    cubes are zero by the invariant of FiniteAlgebra, so they are not
    written.
    """
    alg = pair.algebra
    return {
        "name": pair.name,
        "dim": alg.dim,
        "labels": alg.labels,
        "blocks": [list(b) for b in alg.blocks],
        "structure": [
            complex_to_json(alg.mul[off:off + d, off:off + d, off:off + d].reshape(-1))
            for off, d in alg.blocks
        ],
        "unit": complex_to_json(alg.unit),
        "functional": complex_to_json(pair.functional),
    }


def pair_from_dict(data):
    """Inverse of pair_to_dict.  Refuses a ``structure`` that does not
    hold exactly one array of d^3 entries per declared block."""
    d = int(data["dim"])
    blocks = _block_slices(data["blocks"], d)
    cubes = data["structure"]
    if len(cubes) != len(blocks):
        raise ValueError("structure must hold one array per block")
    mul = np.zeros((d, d, d), dtype=complex)
    for (off, bd), cube in zip(blocks, cubes):
        cube = json_to_complex(cube)
        if cube.shape != (bd**3,):
            raise ValueError("structure array of a block of dimension %d needs %d entries"
                             % (bd, bd**3))
        mul[off:off + bd, off:off + bd, off:off + bd] = cube.reshape(bd, bd, bd)
    unit = json_to_complex(data["unit"]) if d else np.zeros(0, dtype=complex)
    functional = json_to_complex(data["functional"]) if d else np.zeros(0, dtype=complex)
    alg = FiniteAlgebra(mul, unit, labels=data.get("labels"), blocks=blocks)
    return FrobeniusPair(alg, functional, name=data.get("name", "pair"))
