"""Supermatrix algebra: adjoint, product, LDU and LL* factorizations, inversion,
and super-positivity.

Matrices are dense grids of supernumbers sharing one context.  The body of a
matrix is the complex matrix of entry bodies; taking bodies is a ring morphism,
and a matrix is invertible exactly when its body is.  Positivity is decided by
the body criterion (self-adjoint + body PSD/PD) and can be sampled against the
quadratic-form definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import AlgebraContext, Supernumber, basis_mul, dagger, invert, kth_root, linear_combine, mul
from .errors import BodySingular, ContextMismatch, NotRegular, NotSuperpositive, ShapeMismatch

_ADJOINT_TOL = 1e-12  # relative 1-norm tolerance of M* = M (and of J J = I for signatures)


class SuperMatrix:
    """Dense p x q matrix with supernumber entries, immutable."""

    __slots__ = ("context", "rows", "cols", "_entries")

    def __init__(self, entries: Sequence[Sequence[Supernumber]]):
        rows = len(entries)
        if rows == 0 or len(entries[0]) == 0:
            raise ValueError("matrices must have at least one row and column")
        cols = len(entries[0])
        context = entries[0][0].context
        grid = []
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged rows")
            for e in row:
                if e.context != context:
                    raise ContextMismatch("matrix entries use different algebra contexts")
            grid.append(tuple(row))
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_entries", tuple(grid))

    def __setattr__(self, name, value):
        raise AttributeError("SuperMatrix is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Supernumber]]) -> "SuperMatrix":
        return cls(entries)

    @classmethod
    def from_body(cls, context: AlgebraContext, body) -> "SuperMatrix":
        array = np.atleast_2d(np.asarray(body, dtype=complex))
        return cls([[context.scalar(array[i, j]) for j in range(array.shape[1])]
                    for i in range(array.shape[0])])

    @classmethod
    def identity(cls, context: AlgebraContext, n: int) -> "SuperMatrix":
        return cls.from_body(context, np.eye(n))

    @classmethod
    def zeros(cls, context: AlgebraContext, rows: int, cols: int) -> "SuperMatrix":
        zero = context.zero()
        return cls([[zero] * cols for _ in range(rows)])

    @classmethod
    def from_scalar(cls, value: Supernumber) -> "SuperMatrix":
        return cls([[value]])

    @classmethod
    def diagonal(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        context = entries[0].context
        zero = context.zero()
        n = len(entries)
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        return cls([[e] for e in entries])

    @classmethod
    def row(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        return cls([list(entries)])

    @classmethod
    def block(cls, blocks: Sequence[Sequence["SuperMatrix"]]) -> "SuperMatrix":
        grid: list[list[Supernumber]] = []
        for block_row in blocks:
            height = block_row[0].rows
            for b in block_row:
                if b.rows != height:
                    raise ShapeMismatch("block heights differ within a block row")
            for i in range(height):
                grid.append([e for b in block_row for e in b._entries[i]])
        return cls(grid)

    # -- views -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def __getitem__(self, key) -> Supernumber:
        i, j = key
        return self._entries[i][j]

    def entries(self) -> tuple[tuple[Supernumber, ...], ...]:
        return self._entries

    def body(self) -> np.ndarray:
        return np.array([[e.body for e in row] for row in self._entries], dtype=complex)

    def soul(self) -> "SuperMatrix":
        return SuperMatrix([[e.soul for e in row] for row in self._entries])

    def norm1(self) -> float:
        return sum(e.norm1() for row in self._entries for e in row)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self._entries for e in row)

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> "SuperMatrix":
        ri = list(row_indices)
        ci = list(col_indices)
        return SuperMatrix([[self._entries[i][j] for j in ci] for i in ri])

    # -- arithmetic --------------------------------------------------------

    def _map(self, f: Callable[[Supernumber], Supernumber]) -> "SuperMatrix":
        return SuperMatrix([[f(e) for e in row] for row in self._entries])

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return SuperMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self._entries, other._entries)
        ])

    def __sub__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot subtract {self.shape} and {other.shape}")
        return SuperMatrix([
            [a - b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self._entries, other._entries)
        ])

    def __neg__(self):
        return self._map(lambda e: -e)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            c = complex(scalar)
            return self._map(lambda e: e * c)
        return NotImplemented

    __rmul__ = __mul__

    def scale_left(self, s: Supernumber) -> "SuperMatrix":
        """s * M with a supernumber scalar on the left of every entry."""
        return self._map(lambda e: mul(s, e))

    def scale_right(self, s: Supernumber) -> "SuperMatrix":
        """M * s with a supernumber scalar on the right of every entry."""
        return self._map(lambda e: mul(e, s))

    def __matmul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __eq__(self, other):
        if isinstance(other, SuperMatrix):
            return self.shape == other.shape and self._entries == other._entries
        return NotImplemented

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        return f"SuperMatrix({self.rows}x{self.cols})"


def adjoint(m: SuperMatrix) -> SuperMatrix:
    """Conjugate transpose under dagger: M* = (m_kj†); (ML)* = L*M*."""
    return SuperMatrix([
        [dagger(m[i, j]) for i in range(m.rows)]
        for j in range(m.cols)
    ])


def mat_mul(m: SuperMatrix, l: SuperMatrix) -> SuperMatrix:
    """Matrix product over the noncommutative ring (inner sums low-to-high)."""
    if m.cols != l.rows:
        raise ShapeMismatch(f"cannot multiply {m.shape} by {l.shape}")
    rows = []
    for i in range(m.rows):
        row = []
        for j in range(l.cols):
            products = [(1.0, mul(m[i, k], l[k, j])) for k in range(m.cols)]
            row.append(linear_combine(products))
        rows.append(row)
    return SuperMatrix(rows)


def _stacked_mul(x: dict[int, np.ndarray], y: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """Grassmann product of two {monomial key: stack of matrices} maps.

    One batched np.matmul per disjoint key pair, signed by basis_mul.  Keys no
    pair reaches are absent, so powers of an all-soul factor empty within N steps.
    """
    out: dict[int, np.ndarray] = {}
    for a, xa in x.items():
        for b, yb in y.items():
            if not a & b:
                sign, key = basis_mul(a, b)
                term = sign * np.matmul(xa, yb)
                out[key] = out[key] + term if key in out else term
    return out


@dataclass(frozen=True)
class LDUFactors:
    """M = L D U with unitriangular L, U and an invertible diagonal D."""

    lower: SuperMatrix
    diagonal: SuperMatrix
    upper: SuperMatrix

    def reconstruct(self) -> SuperMatrix:
        return mat_mul(mat_mul(self.lower, self.diagonal), self.upper)


def ldu_factor(m: SuperMatrix) -> LDUFactors:
    """LDU factorization by Schur-complement recursion on the (1,1) entry.

    Requires a regular body: every leading principal minor of M_B invertible
    (determinant magnitude above tol_body), else NotRegular names the first
    failing minor.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("LDU needs a square matrix")
    n = m.rows
    context = m.context
    body = m.body()
    for k in range(1, n + 1):
        if abs(np.linalg.det(body[:k, :k])) <= context.tol_body:
            raise NotRegular(k)
    one = context.one()
    zero = context.zero()
    lower = [[one if i == j else zero for j in range(n)] for i in range(n)]
    upper = [[one if i == j else zero for j in range(n)] for i in range(n)]
    diag = [zero] * n
    work = [[m[i, j] for j in range(n)] for i in range(n)]
    for k in range(n):
        pivot = work[0][0]
        pivot_inv = invert(pivot)
        diag[k] = pivot
        size = len(work)
        for i in range(1, size):
            lower[k + i][k] = mul(work[i][0], pivot_inv)
            upper[k][k + i] = mul(pivot_inv, work[0][i])
        next_work = []
        for i in range(1, size):
            row = []
            correction_left = mul(work[i][0], pivot_inv)
            for j in range(1, size):
                row.append(work[i][j] - mul(correction_left, work[0][j]))
            next_work.append(row)
        work = next_work
    return LDUFactors(SuperMatrix(lower), SuperMatrix.diagonal(diag), SuperMatrix(upper))


def mat_invert(m: SuperMatrix) -> SuperMatrix:
    """Inverse via body inversion plus a terminating Neumann series.

    M = M_B (I + B) with B = M_B⁻¹ M_S all-soul, so B^(N+1) = 0 and
    M⁻¹ = (sum_k (-B)^k) M_B⁻¹.  Requires an invertible body (smallest
    singular value above tol_body), else BodySingular.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("inversion needs a square matrix")
    context = m.context
    body = m.body()
    svals = np.linalg.svd(body, compute_uv=False)
    if svals[-1] <= context.tol_body * max(1.0, svals[0]):
        raise BodySingular(f"smallest body singular value {svals[-1]:.3e}")
    body_inv = SuperMatrix.from_body(context, np.linalg.inv(body))
    minus_b = -mat_mul(body_inv, m.soul())
    n = m.rows
    acc = SuperMatrix.identity(context, n)
    power = SuperMatrix.identity(context, n)
    for _ in range(context.generators):
        power = mat_mul(power, minus_b)
        if power.is_zero():
            break
        acc = acc + power
    return mat_mul(acc, body_inv)


def sandwich_solve(l: SuperMatrix, q: SuperMatrix, r: SuperMatrix) -> SuperMatrix:
    """The X with X - L X R = Q (that is, sum_n L^n Q R^n when it converges).

    Complex matrices commute with every generator, so the body map
    X -> X - L_B X R_B acts on each monomial's coefficients as one complex
    system K = I - L_B ⊗ R_Bᵀ (row-major vec).  The remainder
    T(X) = L_S X R + L_B X R_S raises the grade, so
    X = sum_k (K⁻¹T)^k K⁻¹Q ends after at most N soul steps, as in
    mat_invert.  Requires K invertible (smallest singular value above
    tol_body), else BodySingular.
    """
    if l.rows != l.cols or r.rows != r.cols or q.shape != (l.rows, r.rows):
        raise ShapeMismatch(f"cannot solve X - LXR = Q for L {l.shape}, Q {q.shape}, R {r.shape}")
    context = q.context
    rows, cols = q.shape
    l_body = l.body()
    k = np.eye(rows * cols) - np.kron(l_body, r.body().T)
    svals = np.linalg.svd(k, compute_uv=False)
    if svals[-1] <= context.tol_body * max(1.0, svals[0]):
        raise BodySingular(f"smallest singular value of I - L_B ⊗ R_Bᵀ is {svals[-1]:.3e}")
    k_inv = np.linalg.inv(k)

    def body_solve(y: SuperMatrix) -> SuperMatrix:
        flat = [e for row in y.entries() for e in row]
        return SuperMatrix([[linear_combine(zip(k_inv[i * cols + j], flat)) for j in range(cols)]
                            for i in range(rows)])

    l_b = SuperMatrix.from_body(context, l_body)
    l_s, r_s = l.soul(), r.soul()
    term = body_solve(q)
    total = term
    for _ in range(context.generators):
        term = body_solve(mat_mul(l_s, mat_mul(term, r)) + mat_mul(l_b, mat_mul(term, r_s)))
        if term.is_zero():
            break
        total = total + term
    return total


@dataclass(frozen=True)
class PositivityReport:
    """Outcome of a super-positivity test with the failing condition recorded."""

    ok: bool
    reason: str | None
    adjoint_defect: float
    min_body_eigenvalue: float | None

    def __bool__(self) -> bool:
        return self.ok


def _self_adjoint(m: SuperMatrix) -> tuple[bool, float]:
    """Whether M* = M to _ADJOINT_TOL relative to max(1, ||M||_1), and ||M - M*||_1."""
    defect = (m - adjoint(m)).norm1()
    return defect <= _ADJOINT_TOL * max(1.0, m.norm1()), defect


def _body_spectral_radius(m: SuperMatrix) -> float:
    """Largest eigenvalue modulus of the body of a square matrix."""
    return float(np.abs(np.linalg.eigvals(m.body())).max())


def _positivity(m: SuperMatrix, strict: bool) -> PositivityReport:
    if m.rows != m.cols:
        raise ShapeMismatch("positivity needs a square matrix")
    self_adjoint, defect = _self_adjoint(m)
    if not self_adjoint:
        return PositivityReport(False, "not self-adjoint", defect, None)
    body = m.body()
    hermitian = 0.5 * (body + body.conj().T)
    eigs = np.linalg.eigvalsh(hermitian)
    low = float(eigs.min())
    threshold = m.context.tol_body * max(1.0, float(np.linalg.norm(hermitian)))
    if strict:
        ok = low > threshold
        reason = None if ok else "body not positive definite"
    else:
        ok = low >= -threshold
        reason = None if ok else "body not positive semidefinite"
    return PositivityReport(ok, reason, defect, low)


def is_supernonnegative(m: SuperMatrix) -> PositivityReport:
    """Self-adjoint with PSD body — the decidable form of c*Mc ⪰ 0 for all c."""
    return _positivity(m, strict=False)


def is_superpositive(m: SuperMatrix) -> PositivityReport:
    """Self-adjoint with PD body — the decidable form of strict positivity."""
    return _positivity(m, strict=True)


def positive_factorize(m: SuperMatrix) -> SuperMatrix:
    """Lower-triangular L with M = L L*, via LDU and superreal diagonal roots."""
    report = is_superpositive(m)
    if not report:
        raise NotSuperpositive(report.reason or "matrix is not superpositive")
    factors = ldu_factor(m)
    roots = [kth_root(factors.diagonal[k, k], 2) for k in range(m.rows)]
    return mat_mul(factors.lower, SuperMatrix.diagonal(roots))


def polarization_reconstruct(
    form: Callable[[SuperMatrix], Supernumber],
    size: int,
    context: AlgebraContext,
) -> SuperMatrix:
    """Recover M entrywise from the quadratic form q(c) = c*Mc.

    Uses d*Mc = ¼ sum_k i^k q(c + i^k d) with unit-coordinate probes
    (the i^k weight makes the cross term survive; the unweighted sum
    collapses to q(c)+q(d) and recovers nothing).
    """
    weights = [1 + 0j, 1j, -1 + 0j, -1j]
    columns = [
        SuperMatrix.column([context.one() if i == j else context.zero() for i in range(size)])
        for j in range(size)
    ]
    rows = []
    for r in range(size):
        row = []
        for s in range(size):
            probes = []
            for w in weights:
                probe = columns[s] + columns[r] * w
                probes.append((0.25 * w, form(probe)))
            row.append(linear_combine(probes))
        rows.append(row)
    return SuperMatrix(rows)


def quadratic_form(m: SuperMatrix, c: SuperMatrix) -> Supernumber:
    """c*Mc for a column c."""
    return mat_mul(mat_mul(adjoint(c), m), c)[0, 0]

