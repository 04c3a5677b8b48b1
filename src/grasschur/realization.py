"""State-space realizations F(z) = D + zC ⋆ (I - zA)^{-star} B and their calculus.

Taylor coefficients are f_0 = D and f_n = C A^{n-1} B.  Inverses, products,
sums and concatenations have the usual block formulas; observability,
controllability and shift-span ranks are decided on bodies with an SVD
threshold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import _REAL_TOL, AlgebraContext, Supernumber, _pair_apply, _pair_plan, _require_same_context
from .errors import BodySingular, DomainViolation, DSingular, JInvalid, ShapeMismatch
from .matrix import SuperMatrix, _matmul, _self_adjoint, _spread, adjoint, mat_invert, mat_mul, sandwich_solve
from .series import SeriesMatrix

_COMPOSE_MODES = ("product", "sum", "concat_rows", "concat_cols")


@dataclass(frozen=True)
class Realization:
    """Block data (A, B, C, D): A n x n, B n x q, C p x n, D p x q."""

    a: SuperMatrix
    b: SuperMatrix
    c: SuperMatrix
    d: SuperMatrix

    def __post_init__(self):
        n = self.a.rows
        if self.a.cols != n:
            raise ShapeMismatch("A must be square")
        p, q = self.d.shape
        if self.b.shape != (n, q) or self.c.shape != (p, n):
            raise ShapeMismatch(
                f"incompatible blocks: A {self.a.shape}, B {self.b.shape}, C {self.c.shape}, D {self.d.shape}"
            )

    @property
    def state_dim(self) -> int:
        return self.a.rows

    @property
    def shape(self) -> tuple[int, int]:
        return self.d.shape

    @property
    def context(self) -> AlgebraContext:
        return self.d.context

    @classmethod
    def constant(cls, value: SuperMatrix) -> "Realization":
        """The constant function D (state dimension 1 with zero blocks)."""
        context = value.context
        p, q = value.shape
        return cls(
            a=SuperMatrix.zeros(context, 1, 1),
            b=SuperMatrix.zeros(context, 1, q),
            c=SuperMatrix.zeros(context, p, 1),
            d=value,
        )


def to_series(r: Realization, degree: int | None = None) -> SeriesMatrix:
    """Taylor coefficients D, CB, CAB, CA^2B, ... through the given degree
    (the context's max_series_degree by default).  A degree that is not an
    integer in 0..max_series_degree (a bool included) raises DomainViolation
    before any product.

    One loop over key/stack arrays: the power A^{n-1}B is multiplied by A and by C
    on pair plans of its keys (``algebra._pair_plan``), each rebuilt only when
    those keys change.  The pairs and their summation order are mat_mul's, so
    every coefficient is bit-identical to mat_mul(C, A^{n-1}B).
    """
    context = r.context
    for m in (r.a, r.b, r.c):
        _require_same_context(m, r.d)
    if degree is None:
        degree = context.max_series_degree
    elif isinstance(degree, bool) or not isinstance(degree, int) or not 0 <= degree <= context.max_series_degree:
        raise DomainViolation(f"degree must be an integer in 0..{context.max_series_degree}, got {degree!r}")
    by_a, by_c = _planned_product(r.a), _planned_product(r.c)
    power = r.b.keys, r.b.stack  # A^{n-1} B, accumulated left-to-right
    coeffs = [(r.d.keys, r.d.stack)]
    for n in range(1, degree + 1):
        if n > 1:
            power = by_a(*power)
        coeffs.append(by_c(*power))
    keys = np.unique(np.concatenate([k for k, _ in coeffs]))
    return SeriesMatrix._of(context, keys, np.stack([_spread(keys, k, x) for k, x in coeffs], 1), False)


def _planned_product(m: SuperMatrix):
    """(keys, stack) -> keys and stack of M X, on a pair plan kept while X's keys stay the same."""
    generators, held = m.context.generators, [None, None]  # the keys planned for, their plan

    def product(keys, stack):
        if not (len(m.keys) and len(keys)):
            return keys[:0], np.zeros((0, m.rows, stack.shape[2]), dtype=complex)
        if not np.array_equal(held[0], keys):
            held[:] = keys, _pair_plan(generators, m.keys, m.stack, keys)
        return _pair_apply(generators, held[1], stack, _matmul)

    return product


def inverse_realization(r: Realization) -> Realization:
    """Realization of F^{-star}: (A - BD⁻¹C, BD⁻¹, -D⁻¹C, D⁻¹)."""
    try:
        d_inv = mat_invert(r.d)
    except BodySingular as exc:
        raise DSingular(str(exc)) from exc
    b_dinv = mat_mul(r.b, d_inv)
    return Realization(
        a=r.a - mat_mul(b_dinv, r.c),
        b=b_dinv,
        c=-mat_mul(d_inv, r.c),
        d=d_inv,
    )


def compose(r1: Realization, r2: Realization, mode: str) -> Realization:
    """Block realization of F1*F2, F1+F2, [F1 F2] or [F1; F2]."""
    if mode not in _COMPOSE_MODES:
        raise ValueError(f"mode must be one of {_COMPOSE_MODES}")
    if mode == "product":
        if r1.shape[1] != r2.shape[0]:
            raise ShapeMismatch(f"cannot multiply {r1.shape} by {r2.shape}")
        return Realization(
            a=SuperMatrix.block([[r1.a, mat_mul(r1.b, r2.c)], [None, r2.a]]),
            b=SuperMatrix.block([[mat_mul(r1.b, r2.d)], [r2.b]]),
            c=SuperMatrix.block([[r1.c, mat_mul(r1.d, r2.c)]]),
            d=mat_mul(r1.d, r2.d),
        )
    block_diag_a = SuperMatrix.block([[r1.a, None], [None, r2.a]])
    if mode == "sum":
        if r1.shape != r2.shape:
            raise ShapeMismatch(f"cannot add {r1.shape} and {r2.shape}")
        return Realization(
            a=block_diag_a,
            b=SuperMatrix.block([[r1.b], [r2.b]]),
            c=SuperMatrix.block([[r1.c, r2.c]]),
            d=r1.d + r2.d,
        )
    if mode == "concat_cols":  # [F1  F2]
        if r1.shape[0] != r2.shape[0]:
            raise ShapeMismatch("row counts differ")
        return Realization(
            a=block_diag_a,
            b=SuperMatrix.block([[r1.b, None], [None, r2.b]]),
            c=SuperMatrix.block([[r1.c, r2.c]]),
            d=SuperMatrix.block([[r1.d, r2.d]]),
        )
    # concat_rows: [F1; F2]
    if r1.shape[1] != r2.shape[1]:
        raise ShapeMismatch("column counts differ")
    return Realization(
        a=block_diag_a,
        b=SuperMatrix.block([[r1.b], [r2.b]]),
        c=SuperMatrix.block([[r1.c, None], [None, r2.c]]),
        d=SuperMatrix.block([[r1.d], [r2.d]]),
    )


def polynomial_realization(coefficients: list[SuperMatrix]) -> Realization:
    """Realization of M_0 + zM_1 + ... + z^k M_k in shift form, state dimension kq for
    p x q coefficients: A shifts k blocks of size q down by one, B = [I; 0; ...; 0],
    C = [M_1 ... M_k] and D = M_0, so that C A^{n-1} B = M_n."""
    if not coefficients:
        raise ValueError("a polynomial needs at least one coefficient")
    shape = coefficients[0].shape
    for m in coefficients:
        if m.shape != shape:
            raise ShapeMismatch("polynomial coefficients must share one shape")
    if len(coefficients) == 1:
        return Realization.constant(coefficients[0])
    context, q, state = coefficients[0].context, shape[1], (len(coefficients) - 1) * shape[1]
    return Realization(
        a=SuperMatrix.from_body(context, np.eye(state, k=-q)),
        b=SuperMatrix.from_body(context, np.eye(state, q)),
        c=SuperMatrix.block([list(coefficients[1:])]),
        d=coefficients[0],
    )


def _body_rank(body: np.ndarray, context: AlgebraContext) -> int:
    """Count of singular values above tol_body·max(1, σ_max)."""
    svals = np.linalg.svd(body, compute_uv=False)
    return int((svals > context.tol_body * max(1.0, float(svals[0]))).sum())


def is_observable(c: SuperMatrix, a: SuperMatrix) -> bool:
    """Full column rank of the stacked body observability matrix."""
    if a.rows != a.cols or c.cols != a.rows:
        raise ShapeMismatch("need C p x n and A n x n")
    n = a.rows
    cb, ab = c.body(), a.body()
    blocks = []
    power = np.eye(n, dtype=complex)
    for _ in range(n):
        blocks.append(cb @ power)
        power = power @ ab
    return _body_rank(np.vstack(blocks), a.context) == n


def is_controllable(a: SuperMatrix, b: SuperMatrix) -> bool:
    """Full row rank of [B, AB, ..., A^{n-1}B]: observability of the adjoint pair (B*, A*)."""
    if a.rows != a.cols or b.rows != a.rows:
        raise ShapeMismatch("need A n x n and B n x q")
    return is_observable(adjoint(b), adjoint(a))


def is_minimal(r: Realization) -> bool:
    """Observable and controllable (decided on bodies)."""
    return is_observable(r.c, r.a) and is_controllable(r.a, r.b)


def backward_shift_span_dimension(f: SeriesMatrix, n_max: int) -> int:
    """Body rank of the span of truncated backward shifts applied to columns.

    Columns of the stacked matrix are vec(f_{n+m} e_j) for shifts n <= n_max
    and column probes e_j, rows m = 0..degree-n_max (uniform truncation).
    """
    if n_max > f.degree:
        raise ValueError("n_max exceeds the stored degree")
    bodies = np.stack([c.body() for c in f.coeffs])
    rows = f.degree + 1 - n_max
    columns = [bodies[n:n + rows, :, j].ravel() for n in range(n_max + 1) for j in range(f.shape[1])]
    return _body_rank(np.stack(columns, axis=1), f.context)


def _check_signature(j: SuperMatrix) -> None:
    if not _self_adjoint(j)[0]:
        raise JInvalid("J is not self-adjoint")
    eye = SuperMatrix.identity(j.context, j.rows)
    if (mat_mul(j, j) - eye).norm1() > _REAL_TOL * max(1.0, j.norm1()):
        raise JInvalid("J*J != I")


def evaluate_rational(r: Realization, z: Supernumber) -> SuperMatrix:
    """Exact left evaluation sum_n z^n f_n = D + z·Y·B at any argument z.

    Y = sum_n z^n C A^n is the X with X - (zI) X A = C, solved by sandwich_solve
    with no truncation; for central z this is D + zC(I-zA)⁻¹B.  Needs the body
    system of that equation invertible, else BodySingular.
    """
    y = sandwich_solve(SuperMatrix.diagonal([z] * r.shape[0]), r.c, r.a)
    return r.d + mat_mul(y, r.b).scale_left(z)


def is_J_unitary(r: Realization, j: SuperMatrix) -> bool:
    """U(z) J U(z^{-dagger})* = J at every central z, decided at 2d + 1 points of the circle.

    Split A = A_B + A_S into body and soul.  With k the generators A's souls use (popcount
    of the OR of A's soul keys) and g the lowest grade among those keys, a product of m soul
    entries has grade at least mg within those k generators, so it vanishes once m exceeds
    M = floor(k/g).  Hence (I - zA)^{-1} = sum_{m <= M} [(I - zA_B)^{-1} zA_S]^m (I - zA_B)^{-1},
    and since (I - zA_B)^{-1} = adj(I - zA_B)/det(I - zA_B) with degrees n - 1 and n for state
    dimension n, det(I - zA_B)^{M+1} U(z) is a polynomial of degree d <= n(M + 1).  On the
    circle z^{-dagger} = z, and U J U* - J is a Laurent polynomial of degree d over
    |det(I - zA_B)|^{2(M+1)}: zero at 2d + 1 points, it is zero on the circle, hence at every
    central argument (Taylor expansion in the even soul).  The points e^{2πi(m + φ)/(2d + 1)},
    φ the golden-ratio fraction, miss a pole at a root of unity; each residual must be within
    tol_eq·max(1, ‖J‖₁)·max(1, ‖U‖₁²).
    """
    _check_signature(j)
    if r.shape[0] != j.rows or r.shape[1] != j.rows:
        raise ShapeMismatch("U must be square of J's size")
    tol = r.context.tol_eq * max(1.0, j.norm1())
    souls = r.a.keys[r.a.keys != 0]
    k = int(np.bitwise_or.reduce(souls, initial=np.uint64(0))).bit_count()
    factors = k // int(np.bitwise_count(souls).min()) if len(souls) else 0
    points = 2 * r.state_dim * (factors + 1) + 1
    for z in np.exp(2j * np.pi * (np.arange(points) + (5 ** 0.5 - 1) / 2) / points):
        u = evaluate_rational(r, r.context.scalar(z))
        residual = mat_mul(mat_mul(u, j), adjoint(u)) - j
        if residual.norm1() > tol * max(1.0, u.norm1() ** 2):
            return False
    return True
