"""Supermatrix algebra: adjoint, product, LDU and LL* factorizations, inversion,
and super-positivity.

``Stacked`` is the one layout of Σ_α X_α i_α that supermatrices, power series
and Laurent series share: ascending uint64 monomial keys and one complex stack
with no all-zero slot.  A matrix is the (keys, rows, cols) case.  Its body is
M_0; taking bodies is a ring morphism, and a matrix is invertible exactly when
its body is.  Positivity is decided by the body criterion (self-adjoint + body
PSD/PD) and can be sampled against the quadratic-form definition.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .algebra import (_REAL_TOL, AlgebraContext, Supernumber, _cmul, _pair_product,
                      _require_same_context, invert, linear_combine)
from .errors import BodySingular, BodyZero, ContextMismatch, NotRegular, NotSuperpositive, ShapeMismatch


class Stacked:
    """Σ_α X_α i_α with complex coefficient objects X_α, immutable: ``stack[s]`` is the
    coefficient of monomial ``keys[s]``.  Keys are ascending uint64, no slot is all
    zero and both arrays are read-only; the last two axes of the stack are the
    (rows, cols) of the coefficient matrices.  ``_own`` names the fields besides the
    layout that equality compares and every derived object inherits."""

    __slots__ = ("context", "keys", "stack")
    _own: tuple[str, ...] = ()

    @classmethod
    def _of(cls, context: AlgebraContext, keys, stack, *own):
        """The object of a uint64 key array, a complex stack with one slot per key and
        the values of ``_own``; drops all-zero slots."""
        kept = stack.any(axis=tuple(range(1, stack.ndim)))
        if not kept.all():
            keys, stack = keys[kept], stack[kept]
        keys.flags.writeable = stack.flags.writeable = False
        x = object.__new__(cls)
        object.__setattr__(x, "context", context)
        object.__setattr__(x, "keys", keys)
        object.__setattr__(x, "stack", stack)
        for name, value in zip(cls._own, own):
            object.__setattr__(x, name, value)
        return x

    def _with(self, keys, stack):
        """An object of this class and its own fields on another layout."""
        return self._of(self.context, keys, stack, *self._fields())

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self._own))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the checking constructor of each layout class
        return type(self), (self.context, self.keys, self.stack)

    @property
    def shape(self) -> tuple[int, int]:
        return self.stack.shape[-2:]

    def _body(self) -> np.ndarray:
        """The body slot: the coefficient of key 0, read-only, or zeros."""
        if len(self.keys) and self.keys[0] == 0:
            return self.stack[0]
        return np.zeros(self.stack.shape[1:], dtype=complex)

    def norm1(self) -> float:
        return float(np.abs(self.stack).sum())

    def is_zero(self) -> bool:
        return not len(self.keys)

    def __neg__(self):
        return self._with(self.keys, -self.stack)

    def __sub__(self, other):
        return self + -other if isinstance(other, type(self)) else NotImplemented

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return self._with(self.keys, self.stack * complex(scalar))
        return NotImplemented

    __rmul__ = __mul__

    def scale_left(self, s: Supernumber):
        """s * X with a supernumber scalar on the left of every coefficient entry."""
        return self._with(*_pair_product(s.context.generators, *self._scalar(s), self.keys, self.stack, _cmul))

    def scale_right(self, s: Supernumber):
        """X * s with a supernumber scalar on the right of every coefficient entry."""
        return self._with(*_pair_product(s.context.generators, self.keys, self.stack, *self._scalar(s), _cmul))

    def _scalar(self, s: Supernumber) -> tuple[np.ndarray, np.ndarray]:
        """Keys and stack of s, each coefficient shaped to broadcast against a slot of this
        stack, read off its canonical (ascending, zero-free) term map."""
        _require_same_context(self, s)
        terms = s._terms
        return (np.fromiter(terms, dtype=np.uint64, count=len(terms)),
                np.fromiter(terms.values(), dtype=complex, count=len(terms)).reshape(-1, *[1] * (self.stack.ndim - 1)))

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return (self.context == other.context and self._fields() == other._fields()
                    and np.array_equal(self.keys, other.keys) and np.array_equal(self.stack, other.stack))
        return NotImplemented

    def __hash__(self):
        return hash((self.stack.shape[1:], self._fields(), self.keys.tobytes()))


class SuperMatrix(Stacked):
    """Dense p x q matrix with supernumber entries: ``stack[s]`` is the (rows, cols)
    coefficient matrix of monomial ``keys[s]``."""

    __slots__ = ()

    def __new__(cls, context: AlgebraContext, keys, stack):
        keys = np.asarray(keys, dtype=np.uint64)
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or 0 in stack.shape[1:] or len(keys) != len(stack):
            raise ValueError("a matrix needs one (rows, cols) coefficient matrix per key, rows, cols >= 1")
        if np.any(keys[1:] <= keys[:-1]) or (len(keys) and int(keys[-1]) >> context.generators):
            raise ValueError(f"keys must ascend strictly and name generators 1..{context.generators} only")
        return cls._of(context, keys, stack)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[Supernumber]]) -> "SuperMatrix":
        """The matrix of a grid of supernumbers sharing one context."""
        rows = len(entries)
        if rows == 0 or len(entries[0]) == 0:
            raise ValueError("matrices must have at least one row and column")
        cols = len(entries[0])
        context = entries[0][0].context
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        if any(e.context != context for row in entries for e in row):
            raise ContextMismatch("matrix entries use different algebra contexts")
        keys = sorted({key for row in entries for e in row for key in e._terms})
        slot = {key: s for s, key in enumerate(keys)}
        stack = np.zeros((len(keys), rows, cols), dtype=complex)
        for i, row in enumerate(entries):
            for j, e in enumerate(row):
                stack[[slot[key] for key in e._terms], i, j] = list(e._terms.values())
        return cls(context, keys, stack)

    @classmethod
    def from_body(cls, context: AlgebraContext, body) -> "SuperMatrix":
        return cls(context, [0], np.atleast_2d(np.array(body, dtype=complex))[None])

    @classmethod
    def identity(cls, context: AlgebraContext, n: int) -> "SuperMatrix":
        return cls.from_body(context, np.eye(n))

    @classmethod
    def zeros(cls, context: AlgebraContext, rows: int, cols: int) -> "SuperMatrix":
        return cls(context, [], np.zeros((0, rows, cols)))

    @classmethod
    def from_scalar(cls, value: Supernumber) -> "SuperMatrix":
        return cls.from_rows([[value]])

    @classmethod
    def diagonal(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        zero = entries[0].context.zero()
        n = len(entries)
        return cls.from_rows([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def column(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        return cls.from_rows([[e] for e in entries])

    @classmethod
    def row(cls, entries: Sequence[Supernumber]) -> "SuperMatrix":
        return cls.from_rows([list(entries)])

    @classmethod
    def block(cls, blocks: Sequence[Sequence["SuperMatrix | None"]]) -> "SuperMatrix":
        """The matrix of a grid of blocks, ``None`` a zero block sized by its block row and
        column.  An empty, ragged or misaligned grid, or one with an all-``None`` block row
        or column, raises ShapeMismatch; blocks of two contexts raise ContextMismatch."""
        heights = [{b.rows for b in row if b is not None} for row in blocks]
        widths = [{b.cols for b in column if b is not None} for column in zip(*blocks)]
        if not widths or any(len(row) != len(widths) for row in blocks) or any(len(s) != 1 for s in heights + widths):
            raise ShapeMismatch("block rows need one length and one height each, block columns one width each")
        given = [(i, j, b) for i, row in enumerate(blocks) for j, b in enumerate(row) if b is not None]
        context = given[0][2].context
        if any(b.context != context for *_, b in given):
            raise ContextMismatch("blocks use different algebra contexts")
        keys = np.unique(np.concatenate([b.keys for *_, b in given]))
        top, left = np.cumsum([0, *map(min, heights)]), np.cumsum([0, *map(min, widths)])  # one size per set
        stack = np.zeros((len(keys), top[-1], left[-1]), dtype=complex)
        for i, j, b in given:
            stack[np.searchsorted(keys, b.keys), top[i]:top[i + 1], left[j]:left[j + 1]] = b.stack
        return cls._of(context, keys, stack)

    # -- views -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.stack.shape[1]

    @property
    def cols(self) -> int:
        return self.stack.shape[2]

    def __getitem__(self, key) -> Supernumber:
        i, j = key
        values = self.stack[:, i, j].tolist()
        return Supernumber._canonical(self.context, {k: v for k, v in zip(self.keys.tolist(), values) if v})

    def entries(self) -> tuple[tuple[Supernumber, ...], ...]:
        return tuple(tuple(self[i, j] for j in range(self.cols)) for i in range(self.rows))

    def body(self) -> np.ndarray:
        return self._body().copy()

    def soul(self) -> "SuperMatrix":
        start = int(len(self.keys) > 0 and self.keys[0] == 0)
        return SuperMatrix._of(self.context, self.keys[start:], self.stack[start:])

    def submatrix(self, row_indices: Iterable[int], col_indices: Iterable[int]) -> "SuperMatrix":
        return SuperMatrix(self.context, self.keys, self.stack[:, list(row_indices)][:, :, list(col_indices)])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot add {self.shape} and {other.shape}")
        return SuperMatrix._of(_require_same_context(self, other),
                               *_add(self.keys, self.stack, other.keys, other.stack))

    def __matmul__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __repr__(self):
        return f"SuperMatrix({self.rows}x{self.cols})"


def _spread(keys: np.ndarray, ka, x) -> np.ndarray:
    """The stack x of keys ka placed on ``keys``, an ascending superset of ka."""
    out = np.zeros((len(keys), *x.shape[1:]), dtype=complex)
    out[np.searchsorted(keys, ka)] = x
    return out


def _add(ka, x, kb, y) -> tuple[np.ndarray, np.ndarray]:
    """Keys and stack of Σ x_a i_a + Σ y_b i_b."""
    keys = np.union1d(ka, kb)
    return keys, _spread(keys, ka, x) + _spread(keys, kb, y)


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y over the last two axes, one broadcast multiply-add per inner index.

    On ``_pair_product``'s operands, whose pair axis is innermost in memory, each
    multiply-add is one loop over all pairs, which is what makes this faster than
    np.matmul on stacks of small complex matrices."""
    if x.shape[-1] == 1:
        return _cmul(x, y)
    out = x[..., :, :1] * y[..., :1, :]
    for r in range(1, x.shape[-1]):
        out += x[..., :, r:r + 1] * y[..., r:r + 1, :]
    return out


def _product(m: SuperMatrix, l: SuperMatrix, op) -> SuperMatrix:
    """The Grassmann product of two matrices' stacks, ``op`` multiplying the coefficients."""
    return SuperMatrix._of(_require_same_context(m, l),
                           *_pair_product(m.context.generators, m.keys, m.stack, l.keys, l.stack, op))


def _body_inverse(context: AlgebraContext, body: np.ndarray) -> np.ndarray:
    """B⁻¹ for a body whose smallest singular value is above tol_body (times the
    largest, when that exceeds 1), else BodySingular."""
    svals = np.linalg.svd(body, compute_uv=False)
    if svals[-1] <= context.tol_body * max(1.0, svals[0]):
        raise BodySingular(f"smallest body singular value {svals[-1]:.3e}")
    return np.linalg.inv(body)


def _by_grade(pending, solved: list, solve, feedback) -> tuple[np.ndarray, np.ndarray]:
    """The loop of ``_inverse`` and ``_lower_factor``: a sum solved one grade at a time
    (relaxed power-series solving, the grade in the role of the degree).  ``pending``
    (keys, stack) is what the unsolved grades owe; each round its lowest-grade slice is
    final, ``solve`` maps that stack to the solved one, which joins the (keys, stack)
    slices ``solved``, and ``feedback(solved)`` gives, by one pair product, what the new
    last slice adds to the higher grades.  Returns all solved slices, keys ascending."""
    while len(pending[0]):
        grades = np.bitwise_count(pending[0])
        low = grades == grades.min()
        solved.append((pending[0][low], solve(pending[1][low])))
        pending = _add(pending[0][~low], pending[1][~low], *feedback(solved))
    return _merge(solved)


def _merge(slices) -> tuple[np.ndarray, np.ndarray]:
    """Keys and stack of (keys, stack) slices whose key sets are disjoint, keys ascending."""
    keys, stacks = map(np.concatenate, zip(*slices))
    order = np.argsort(keys)
    return keys[order], stacks[order]


def _inverse(context: AlgebraContext, keys, stack, body_inv, op) -> tuple[np.ndarray, np.ndarray]:
    """Keys and stack of (Σ X_α i_α)⁻¹ for body B = stack[0] (keys[0] == 0) and soul S.

    The inverse W solves W = B⁻¹ + TW with T = −B⁻¹S.  T raises the grade, so W is
    solved one grade at a time (``_by_grade``): the lowest-grade slice of the pending
    sum TW is final, joins W, and is multiplied by T once.  Each disjoint (T, W) term
    pair is formed once, in at most N + 1 pair products.  ``body_inv`` is B⁻¹ and ``op``
    the payload product of the coefficients (``_pair_product``)."""
    step = -op(body_inv[None], stack[1:])
    solved = [(keys[:1], body_inv[None])]

    def feedback(solved):
        return _pair_product(context.generators, keys[1:], step, *solved[-1], op)

    return _by_grade(feedback(solved), solved, lambda x: x, feedback)


def _adjoint_stack(keys, stack) -> np.ndarray:
    """The stack of (Σ X_α i_α)* on the same keys: each X_αᴴ times the dagger sign."""
    flip = (np.bitwise_count(keys) & 2).astype(bool)[:, None, None]  # grade t = 2, 3 (mod 4)
    stack = stack.conj().transpose(0, 2, 1)
    return np.where(flip, -stack, stack)


def adjoint(m: SuperMatrix) -> SuperMatrix:
    """Conjugate transpose under dagger: M* = (m_kj†); (ML)* = L*M*."""
    return SuperMatrix._of(m.context, m.keys, _adjoint_stack(m.keys, m.stack))


def mat_mul(m: SuperMatrix, l: SuperMatrix) -> SuperMatrix:
    """Matrix product over the noncommutative ring."""
    if m.cols != l.rows:
        raise ShapeMismatch(f"cannot multiply {m.shape} by {l.shape}")
    return _product(m, l, _matmul)


@dataclass(frozen=True)
class LDUFactors:
    """M = L D U with unitriangular L, U and an invertible diagonal D."""

    lower: SuperMatrix
    diagonal: SuperMatrix
    upper: SuperMatrix

    def reconstruct(self) -> SuperMatrix:
        return mat_mul(mat_mul(self.lower, self.diagonal), self.upper)


def ldu_factor(m: SuperMatrix) -> LDUFactors:
    """LDU factorization by Schur-complement recursion on whole blocks:

        M = [1 0; l L'] [p 0; 0 D'] [1 u; 0 U']

    with pivot p = M[0, 0], l = M[1:, 0] p⁻¹, u = p⁻¹ M[0, 1:] (p⁻¹ a supernumber) and
    L'D'U' the factorization of the Schur complement M[1:, 1:] - l M[0, 1:].

    Requires a regular body: every leading principal minor of M_B invertible
    (determinant magnitude above tol_body), else NotRegular names the first
    failing minor.  A pivot, the last included, whose body modulus is at most
    tol_body raises BodyZero.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("LDU needs a square matrix")
    body = m.body()
    for k in range(1, m.rows + 1):
        if abs(np.linalg.det(body[:k, :k])) <= m.context.tol_body:
            raise NotRegular(k)
    return _ldu(m)


def _ldu(m: SuperMatrix) -> LDUFactors:
    context, n = m.context, m.rows
    pivot = m.submatrix([0], [0])
    modulus = abs(pivot.body()[0, 0])
    if modulus <= context.tol_body:
        raise BodyZero(f"pivot body modulus {modulus:.3e} is below tol_body")
    one = SuperMatrix.identity(context, 1)
    if n == 1:
        return LDUFactors(one, pivot, one)
    rest = range(1, n)
    pivot_inv, top = invert(m[0, 0]), m.submatrix([0], rest)
    l, u = m.submatrix(rest, [0]).scale_right(pivot_inv), top.scale_left(pivot_inv)
    inner = _ldu(m.submatrix(rest, rest) - mat_mul(l, top))
    return LDUFactors(SuperMatrix.block([[one, None], [l, inner.lower]]),
                      SuperMatrix.block([[pivot, None], [None, inner.diagonal]]),
                      SuperMatrix.block([[one, u], [None, inner.upper]]))


def mat_invert(m: SuperMatrix) -> SuperMatrix:
    """Inverse via body inversion plus the soul recursion, solved grade by grade.

    M = M_B (I + B) with B = M_B⁻¹ M_S all-soul, so W = M⁻¹ solves
    W = M_B⁻¹ − B W, and B raises the grade: each grade of W follows from the
    lower ones, and the recursion ends within N grades (``_inverse``).
    Requires an invertible body (smallest singular value above tol_body),
    else BodySingular.
    """
    if m.rows != m.cols:
        raise ShapeMismatch("inversion needs a square matrix")
    context = m.context
    return SuperMatrix._of(context, *_inverse(context, m.keys, m.stack, _body_inverse(context, m.body()), _matmul))


def sandwich_solve(l: SuperMatrix, q: SuperMatrix, r: SuperMatrix) -> SuperMatrix:
    """The X with X - L X R = Q (that is, sum_n L^n Q R^n when it converges).

    Complex matrices commute with every generator, so the body map
    X -> X - L_B X R_B acts on each monomial's coefficients as one complex
    system K = I - L_B ⊗ R_Bᵀ (row-major vec).  The remainder
    T(X) = L_S X R + L_B X R_S raises the grade, so
    X = sum_k (K⁻¹T)^k K⁻¹Q ends after at most N soul steps.  (Solving it
    grade by grade, as ``_inverse`` does, measured slower on these small
    operators.)  Requires K invertible (smallest singular value above
    tol_body), else BodySingular.
    """
    if l.rows != l.cols or r.rows != r.cols or q.shape != (l.rows, r.rows):
        raise ShapeMismatch(f"cannot solve X - LXR = Q for L {l.shape}, Q {q.shape}, R {r.shape}")
    context = q.context
    rows, cols = q.shape
    l_body = l.body()
    k_inv = _body_inverse(context, np.eye(rows * cols) - np.kron(l_body, r.body().T))

    def body_solve(y: SuperMatrix) -> SuperMatrix:
        flat = y.stack.reshape(-1, rows * cols) @ k_inv.T  # K⁻¹ on each monomial's row-major vec
        return SuperMatrix._of(context, y.keys, flat.reshape(-1, rows, cols))

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
    """Whether M* = M to _REAL_TOL relative to max(1, ||M||_1), and ||M - M*||_1."""
    if m.rows != m.cols:
        raise ShapeMismatch(f"a {m.shape} matrix cannot be self-adjoint")
    defect = float(np.abs(m.stack - adjoint(m).stack).sum())  # M* has the keys of M
    return defect <= _REAL_TOL * max(1.0, m.norm1()), defect


def _body_spectral_radius(m: SuperMatrix) -> float:
    """Largest eigenvalue modulus of the body of a square matrix."""
    return float(np.abs(np.linalg.eigvals(m.body())).max())


def _body_definite(context: AlgebraContext, body, strict: bool) -> tuple[bool, float]:
    """The body rule for a matrix known to be self-adjoint: whether the least eigenvalue of the Hermitian part H
    of its array-like body is above tol_body * max(1, ||H||_F) (strict) or not below minus that; and the eigenvalue."""
    body = np.asarray(body)
    hermitian = 0.5 * (body + body.conj().T)
    low = float(np.linalg.eigvalsh(hermitian).min())
    threshold = context.tol_body * max(1.0, float(np.linalg.norm(hermitian)))
    return (low > threshold if strict else low >= -threshold), low


def _positivity(m: SuperMatrix, strict: bool) -> PositivityReport:
    self_adjoint, defect = _self_adjoint(m)  # ShapeMismatch unless square
    if not self_adjoint:
        return PositivityReport(False, "not self-adjoint", defect, None)
    ok, low = _body_definite(m.context, m._body(), strict)
    reason = None if ok else "body not positive definite" if strict else "body not positive semidefinite"
    return PositivityReport(ok, reason, defect, low)


def is_supernonnegative(m: SuperMatrix) -> PositivityReport:
    """Self-adjoint with PSD body — the decidable form of c*Mc ⪰ 0 for all c."""
    return _positivity(m, strict=False)


def is_superpositive(m: SuperMatrix) -> PositivityReport:
    """Self-adjoint with PD body — the decidable form of strict positivity."""
    return _positivity(m, strict=True)


def positive_factorize(m: SuperMatrix) -> SuperMatrix:
    """Lower-triangular L with M = L L* for a superpositive M, else NotSuperpositive; L is
    unique with a superreal diagonal of positive bodies, solved by grade (``_lower_factor``)."""
    report = is_superpositive(m)
    if not report:
        raise NotSuperpositive(report.reason or "matrix is not superpositive")
    return _lower_factor(m)


def _lower_factor(m: SuperMatrix) -> SuperMatrix:
    """L = L_B + Σ_g X_g (X_g on the keys of grade g) with L L* = M, solved by grade.

    L_B is the Cholesky factor of the body's Hermitian part, which the gate found
    positive definite.  Grade g of L L* = M reads L_B X_g* + X_g L_B* = R_g, with
    R_g = M_g − Σ_{a+b=g; a,b≥1} X_a X_b*; per key of dagger sign s = (−1)^{g(g−1)/2},
    X = L_B Z turns it into Z + s Zᴴ = Y = L_B⁻¹ R L_B⁻ᴴ, solved by Z = Φ(Y), the strict
    lower triangle of Y plus half its diagonal.  One Φ serves both signs: Y is Hermitian
    where s = 1 and skew-Hermitian where s = −1, so Z's diagonal is real, respectively
    imaginary, and L's diagonal is superreal.  Z's strict lower triangle is forced and
    a superreal diagonal fixes the rest, so L is unique.  Solving lowest grade first
    (``_by_grade``, the pending sum starting as M's soul), X_g feeds back through one
    pair product P = X_g (L_{<g} + ½X_g)*, L_{<g} the soul solved before it: by
    (AB)* = B*A*, P + P* = X_g L_{<g}* + L_{<g} X_g* + X_g X_g*, all above grade g."""
    context, body = m.context, m.stack[0]  # keys[0] == 0: the body is positive definite
    chol = np.linalg.cholesky(0.5 * (body + body.conj().T))
    chol_inv = np.linalg.inv(chol)
    phi = np.tril(np.ones(m.shape), -1) + 0.5 * np.eye(m.rows)  # Φ as a mask

    def feedback(solved):
        keys, x = solved[-1]
        right_keys, right = _merge([*solved[1:-1], (keys, 0.5 * x)])
        product_keys, product = _pair_product(context.generators, keys, x,
                                              right_keys, _adjoint_stack(right_keys, right), _matmul)
        return product_keys, -(product + _adjoint_stack(product_keys, product))

    return SuperMatrix._of(context, *_by_grade((m.keys[1:], m.stack[1:]), [(m.keys[:1], chol[None])],
                                               lambda r: chol @ (phi * (chol_inv @ r @ chol_inv.conj().T)),
                                               feedback))


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
    return SuperMatrix.from_rows(rows)


def quadratic_form(m: SuperMatrix, c: SuperMatrix) -> Supernumber:
    """c*Mc for a column c."""
    return mat_mul(mat_mul(adjoint(c), m), c)[0, 0]

