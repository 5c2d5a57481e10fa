"""Finite dimensional algebras with trace functionals.

A Frobenius pair is a finite dimensional associative unital algebra
together with a linear functional whose induced bilinear form
``(x, y) = l(x * y)`` is symmetric and nondegenerate.  The module builds
the canonical families (one dimensional, full matrix, quaternion), glues
pairs into orthogonal sums, and verifies the axioms numerically with
explicit residuals.

An algebra is stored as the cubes of its structure tensor on its
blocks, stacked by block size into (g, d, d, d) arrays that alone
describe the blocks; the entries between blocks are zero and never
stored.  Residuals and Gram matrices are contracted one stack at a time, as batched matrix products
on reshaped cubes; products and action matrices as batched einsums.

A pair may carry a stack of functionals on one algebra, ``functional``
of shape (S, dim): its Gram matrices and their margins then come as
(S, dim, dim) and (S,) arrays from the same batched calls, one entry per
functional.

Every check hands over its defect arrays, and the rules beside
``VerificationReport`` alone reduce them.  A residual is the largest
absolute entry of its defect arrays, NaN if any entry is, 0 if there are
none (``_worst``; a stack keeps its point axis); the worst point of a
stack is the first NaN, else the first row within ``_TIE_RTOL`` of the
extreme (``_worst_row``); the pass rule is ``VerificationReport.entries``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polycore import EQ_TOL

__all__ = [
    "FiniteAlgebra",
    "FrobeniusPair",
    "VerificationReport",
    "number_pair",
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
    """Encode a complex scalar or nested array as [re, im] pairs (its float view)."""
    arr = np.asarray(x, dtype=complex, order="C")
    return arr.reshape(-1).view(float).reshape(arr.shape + (2,)).tolist()


def json_to_complex(obj):
    """Inverse of complex_to_json, bit for bit; refuses anything but numbers
    in trailing [re, im] pairs with ValueError."""
    arr = np.asarray(obj)
    if arr.dtype.kind not in "biuf" or arr.shape[-1:] != (2,):
        raise ValueError("expected trailing [re, im] pairs")
    return np.ascontiguousarray(arr, dtype=float).view(complex)[..., 0]


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


def _stack(blocks, cubes):
    """Cubes listed in the order of ``blocks``, grouped by block dimension
    into (index, stack) pairs: ``stack`` is (g, d, d, d) and ``index[k]``
    holds the basis indices of the k-th block of that dimension.  A size
    with a single block keeps a view of its cube."""
    groups = {}
    for (off, d), cube in zip(blocks, cubes):
        groups.setdefault(d, []).append((off, cube))
    stacks = []
    for d, members in groups.items():
        offsets = np.array([off for off, _ in members])
        stack = members[0][1][None] if len(members) == 1 else np.stack([c for _, c in members])
        stacks.append((offsets[:, None] + np.arange(d), stack))
    return stacks


def _matrices(cubes, k):
    """(g, d, d, d) cubes as (g, d^k, d^(3-k)) matrices: rows on the first k indices."""
    return cubes.reshape(len(cubes), cubes.shape[1] ** k, -1)


def _dense(stacks, dim):
    """The (dim, dim, dim) structure tensor the stacks stand for."""
    out = np.zeros((dim, dim, dim), dtype=complex)
    for index, cubes in stacks:
        out[index[:, :, None, None], index[:, None, :, None], index[:, None, None, :]] = cubes
    return out


class FiniteAlgebra:
    """Associative unital algebra given by its structure tensor.

    The structure tensor ``mul[i, j, :]`` holds the coordinates of
    ``e_i * e_j`` in the basis, ``unit`` the coordinates of the identity.
    ``blocks`` lists the disjoint (offset, dim) slices of the basis that
    split the algebra, in basis order: every entry of the structure tensor
    outside the cubes of the blocks is zero.

    Only the cubes are stored, grouped by block dimension: ``stacks``
    holds one ``(index, cubes)`` pair per dimension d, with ``cubes`` a
    (g, d, d, d) array and ``index`` the (g, d) basis indices of its
    blocks, one row per block; ``blocks`` is read off these rows.  Every
    routine contracts one stack at a time, so g blocks of one size cost
    one batched matrix product or einsum per contraction.

    The constructor takes a dense tensor and its block slices (by default
    the one block (0, dim)), refuses one with a nonzero entry (NaN
    included) outside their cubes, and keeps only the cubes; a one-block
    tensor is kept as it is, without a copy.
    """

    def __init__(self, mul, unit, labels=None, blocks=None):
        mul = np.asarray(mul, dtype=complex)
        if mul.ndim != 3 or len({*mul.shape}) != 1:
            raise ValueError("structure tensor must be d x d x d")
        dim = mul.shape[0]
        if blocks is None:
            blocks = [(0, dim)] if dim else []
        blocks = _block_slices(blocks, dim)
        cubes = [mul[off:off + d, off:off + d, off:off + d] for off, d in blocks]
        # disjoint blocks hold every nonzero entry exactly when the counts
        # agree; NaN counts as nonzero, so it is refused outside the blocks
        if np.count_nonzero(mul) != sum(map(np.count_nonzero, cubes)):
            raise ValueError("blocks do not split the structure tensor")
        self._init(dim, _stack(blocks, cubes), unit, labels)

    @classmethod
    def _from_stacks(cls, stacks, unit, labels):
        """Algebra on stacks of checked blocks; the dimension is the length
        of ``unit``."""
        alg = cls.__new__(cls)
        alg._init(len(unit), stacks, unit, labels)
        return alg

    def _init(self, dim, stacks, unit, labels):
        self.dim = dim
        self.unit = np.asarray(unit, dtype=complex)
        if self.unit.shape != (dim,):
            raise ValueError("unit has wrong length")
        self.blocks = sorted((row[0], len(row)) for index, _ in stacks for row in index.tolist())
        self.stacks = stacks
        self.labels = list(labels) if labels is not None else ["e%d" % i for i in range(dim)]

    def cubes(self):
        """(offset, cube) for every block, in basis order."""
        return sorted(((off, cube) for index, stack in self.stacks
                       for off, cube in zip(index[:, 0].tolist(), stack)), key=lambda b: b[0])

    def block_matrix(self, parts):
        """(dim, dim) matrix that is zero off the blocks and holds, on the
        blocks of the s-th stack, the (g, d, d) array ``parts[s]``.  Parts
        with leading sample axes give one such matrix per sample."""
        batch = parts[0].shape[:-3] if parts else ()
        out = np.zeros(batch + (self.dim, self.dim), dtype=complex)
        for (index, _), part in zip(self.stacks, parts):
            out[..., index[:, :, None], index[:, None, :]] = part
        return out

    def multiply(self, x, y):
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        out = np.zeros(self.dim, dtype=complex)
        for index, cubes in self.stacks:
            out[index] = np.einsum("gi,gj,gijk->gk", x[index], y[index], cubes)
        return out

    def left_action_matrix(self, x):
        """Matrix of left multiplication by x in the basis."""
        x = np.asarray(x, dtype=complex)
        return self.block_matrix([
            np.einsum("gi,gijk->gkj", x[index], cubes) for index, cubes in self.stacks])

    def associator_residual(self):
        """Max norm of (e_i e_j) e_k - e_i (e_j e_k) over all basis triples.

        The blocks split the structure tensor, so both sides vanish
        exactly on a triple that spans two blocks, and each stack of
        blocks is checked on its own.  A NaN in any block makes the
        result NaN.
        """
        defects = []
        for _, c in self.stacks:
            # (ij, m) @ (m, kl) against, for each i, (jk, m) @ (m, l)
            left = _matrices(c, 2) @ _matrices(c, 1)
            defects.append(left - (_matrices(c, 2)[:, None] @ c).reshape(left.shape))
        return _worst(defects)

    def unit_residual(self):
        """Worst defect of e x = x e = x over the basis.  A basis vector
        outside every block multiplies to zero, a defect of 1."""
        worst = [np.ones(1)] if sum(d for _, d in self.blocks) < self.dim else []
        for index, cubes in self.stacks:
            e, eye = self.unit[index], np.eye(cubes.shape[1])
            worst.append((e[:, None] @ _matrices(cubes, 1)).reshape(cubes.shape[:3]) - eye)
            worst.append((e[:, None, None] @ cubes)[:, :, 0] - eye)
        return _worst(worst)

    def commutator_residual(self):
        return _worst(self._commutator_defects())

    def _commutator_defects(self):
        """e_i e_j - e_j e_i on each stack of blocks."""
        return [c - c.transpose(0, 2, 1, 3) for _, c in self.stacks]


@dataclass
class FrobeniusPair:
    """Algebra plus trace functional; ``functional[i] = l(e_i)``, or
    ``functional[s, i]`` for a stack of functionals on the one algebra."""

    algebra: FiniteAlgebra
    functional: np.ndarray
    name: str = "pair"

    def __post_init__(self):
        self.functional = np.asarray(self.functional, dtype=complex)
        if self.functional.shape[-1:] != (self.algebra.dim,):
            raise ValueError("functional has wrong length")

    def apply(self, x):
        return complex(np.dot(self.functional, np.asarray(x, dtype=complex)))

    def gram(self):
        """Matrix of the bilinear form (e_i, e_j) = l(e_i e_j), zero off
        the blocks; one per functional of a stack."""
        alg = self.algebra
        return alg.block_matrix([(cubes @ self.functional[..., index][..., None, :, None])[..., 0]
                                 for index, cubes in alg.stacks])


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
        """The verdict block of a CLI report: the rows of ``entries``, no
        ``data`` and ``passed``."""
        residuals, margins = self.entries()
        return {"residuals": residuals, "margins": margins, "data": {},
                "passed": all(row["pass"] for row in residuals + margins)}


def _worst(defects, axis=None):
    """The one reduction rule: the largest absolute entry over a list of
    defect arrays as a float, NaN when any entry is NaN and 0.0 when they
    hold none.  With ``axis`` only those axes of each array are reduced,
    so a stacked check keeps its point axis."""
    worst = 0.0
    for d in defects:  # np.maximum, unlike max, keeps a NaN wherever it comes
        worst = np.maximum(worst, np.abs(d).max(axis=axis, initial=0.0))
    return float(worst) if axis is None else worst


_TIE_RTOL = 128 * np.finfo(float).eps  # about 128 ulps of the extreme


def _worst_row(values, extreme=np.argmax):
    """The row rule: the index of the worst of the per-point ``values`` of
    a stack, the first NaN, else the first row within ``_TIE_RTOL`` of the
    extreme under ``extreme`` (np.argmax for residuals, np.argmin for
    margins), so that rounding alone does not move the worst row.  An
    extreme of 0 or inf ties only exactly."""
    values = np.asarray(values)
    nan = np.isnan(values)
    if nan.any():
        return int(np.argmax(nan))
    worst = values.flat[extreme(values)]
    near = values == worst if np.isinf(worst) else np.abs(values - worst) <= _TIE_RTOL * abs(worst)
    return int(np.argmax(near))


_TINY = np.finfo(float).tiny


def nondegeneracy_margin(matrix):
    """Smallest over largest singular value; 0 for a singular matrix,
    inf for an empty one (a zero dimensional form is vacuously fine) and
    NaN for one with a non-finite entry, which fails every margin test.
    A (S, d, d) stack gives the S margins from one batched SVD."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape[-1] == 0:
        margin = np.full(m.shape[:-2], np.inf)
    else:
        finite = np.isfinite(m).all(axis=(-2, -1))
        clean = finite.all()
        if not clean:
            m = np.where(finite[..., None, None], m, 0.0)
        svals = np.linalg.svd(m, compute_uv=False)
        # a zero largest value makes the smallest zero too, and the margin 0
        margin = svals[..., -1] / np.maximum(svals[..., 0], _TINY)
        if not clean:
            margin = np.where(finite, margin, np.nan)
    return float(margin) if margin.ndim == 0 else margin


def verify_frobenius(pair, tol=EQ_TOL, commutative=False):
    """Check the Frobenius pair axioms numerically.

    Residuals: associativity, two-sided unit, symmetry of the form
    (equivalently l vanishes on commutators), and optionally
    commutativity.  Margin: singular value ratio of the Gram matrix.
    On a stack of functionals the form symmetry and the margin report
    the worst functional of the stack, NaN if any is.
    """
    rep = VerificationReport(subject=pair.name, tol=tol)
    if pair.algebra.dim == 0:
        return rep
    rep.residuals, g = _frobenius_residuals(pair, commutative)
    rep.margins["form_nondegeneracy"] = float(np.min(nondegeneracy_margin(g)))
    return rep


def _frobenius_residuals(pair, commutative=False):
    """The residuals of ``verify_frobenius`` on a pair of positive
    dimension, by name, and the Gram matrix (or stack of them) they read."""
    alg = pair.algebra
    g = pair.gram()
    residuals = {"associativity": alg.associator_residual(), "unit": alg.unit_residual(),
                 "form_symmetry": _worst([g - g.swapaxes(-1, -2)])}
    if commutative:
        residuals["commutativity"] = alg.commutator_residual()
    return residuals, g


def number_pair(lam, name="number"):
    """One dimensional pair: the ground field with l(1) = lam."""
    lam = complex(lam)
    if lam == 0:
        raise ValueError("degenerate functional")
    mul = np.ones((1, 1, 1), dtype=complex)
    return FrobeniusPair(FiniteAlgebra(mul, [1.0], labels=["1"]), [lam], name=name)


def matrix_pair(m, mu, name=None):
    """Full m x m matrix algebra with l = mu * trace.

    Basis is E[k, r] flattened row-major; E[k, r] E[l, s] = delta_{rl} E[k, s].
    """
    mu = complex(mu)
    if mu == 0:
        raise ValueError("trace scale must be nonzero")
    d, e = m * m, np.eye(m, dtype=complex)
    mul = np.einsum("kK,rl,sS->krlsKS", e, e, e).reshape(d, d, d)
    unit = e.ravel()
    functional = mu * unit
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
    """Direct sum of two Frobenius pairs; see orthogonal_sum_list."""
    return orthogonal_sum_list([p1, p2], name=name or "%s+%s" % (p1.name, p2.name))


def orthogonal_sum_list(pairs, name="sum"):
    """Direct sum of a nonempty list of Frobenius pairs: the stacks of
    cubes of each block size, units, functionals and labels
    concatenated, with no dense tensor formed.  A summand may have
    dimension zero.  The sum keeps one block per block of a summand.  The
    summands are copied, never modified."""
    if not pairs:
        raise ValueError("need at least one summand")
    groups, labels, off = {}, [], 0
    for p in pairs:
        for index, cubes in p.algebra.stacks:
            groups.setdefault(cubes.shape[1], []).append((index + off, cubes))
        labels += p.algebra.labels
        off += p.algebra.dim
    stacks = [(np.concatenate([index for index, _ in group]),
               np.concatenate([cubes for _, cubes in group])) for group in groups.values()]
    unit = np.concatenate([p.algebra.unit for p in pairs])
    functional = np.concatenate([p.functional for p in pairs])
    return FrobeniusPair(FiniteAlgebra._from_stacks(stacks, unit, labels), functional, name=name)


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
    basis = np.eye(4, dtype=complex)
    defects = [quat.algebra.multiply(psi @ x, psi @ y) - psi @ mat.algebra.multiply(x, y)
               for x in basis for y in basis]
    defects += [quat.apply(psi @ x) - mat.apply(x) for x in basis]
    return psi, _worst(defects)


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
        "structure": [complex_to_json(cube.reshape(-1)) for _, cube in alg.cubes()],
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
    arrays = []
    for (_, bd), cube in zip(blocks, cubes):
        cube = json_to_complex(cube)
        if cube.shape != (bd**3,):
            raise ValueError("structure array of a block of dimension %d needs %d entries"
                             % (bd, bd**3))
        arrays.append(cube.reshape(bd, bd, bd))
    unit = json_to_complex(data["unit"]) if d else np.zeros(0, dtype=complex)
    functional = json_to_complex(data["functional"]) if d else np.zeros(0, dtype=complex)
    if unit.shape != (d,):
        raise ValueError("unit has wrong length")
    alg = FiniteAlgebra._from_stacks(_stack(blocks, arrays), unit, data.get("labels"))
    return FrobeniusPair(alg, functional, name=data.get("name", "pair"))
