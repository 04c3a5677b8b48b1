"""Truncated power series and Laurent series with supermatrix coefficients.

The star (Cauchy) product convolves coefficients: (f⋆g)_n = sum_u f_u g_{n-u}.
A ``SeriesMatrix`` is one-sided (powers of z on the left of the coefficients);
the ``exact`` flag marks polynomials whose higher coefficients are exactly
zero, so products of polynomials keep their full degree while products with
truncated series drop to the degree that is exactly computable.  A
``LaurentSeries`` is two-sided with finite support and models the
Wiener-Grassmann algebra, where invertibility is decided on the body alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraContext, Supernumber, mul
from .errors import (
    BodySingular,
    ConstantTermSingular,
    ContextMismatch,
    NotInvertible,
    ShapeMismatch,
    TailTooLarge,
    WindowTooSmall,
)
from .matrix import SuperMatrix, _inverse, _spread, adjoint, mat_invert, mat_mul


@dataclass(frozen=True)
class SeriesMatrix:
    """One-sided power series F(z) = sum_n z^n f_n, truncated at len(coeffs)-1."""

    coeffs: tuple[SuperMatrix, ...]
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        shape = self.coeffs[0].shape
        context = self.coeffs[0].context
        for c in self.coeffs:
            if c.shape != shape:
                raise ShapeMismatch("series coefficients must share one shape")
            if c.context != context:
                raise ContextMismatch("series coefficients must share one context")
        if self.degree > context.max_series_degree:
            raise ValueError(
                f"degree {self.degree} exceeds max_series_degree {context.max_series_degree}"
            )

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs[0].shape

    @property
    def context(self) -> AlgebraContext:
        return self.coeffs[0].context

    def coefficient(self, n: int) -> SuperMatrix:
        """n-th coefficient; zero beyond the stored degree for exact series."""
        if n < 0:
            raise IndexError("negative power in a one-sided series")
        if n <= self.degree:
            return self.coeffs[n]
        if self.exact:
            return SuperMatrix.zeros(self.context, *self.shape)
        raise IndexError(f"coefficient {n} beyond truncation degree {self.degree}")

    def norm1(self) -> float:
        return sum(c.norm1() for c in self.coeffs)

    def truncated(self, degree: int) -> "SeriesMatrix":
        if degree >= self.degree:
            if self.exact:
                pad = [SuperMatrix.zeros(self.context, *self.shape)] * (degree - self.degree)
                return SeriesMatrix(self.coeffs + tuple(pad), exact=True)
            return self
        return SeriesMatrix(self.coeffs[: degree + 1], exact=False)

    def block(self, row0: int, row1: int, col0: int, col1: int) -> "SeriesMatrix":
        """Coefficientwise submatrix [row0:row1, col0:col1]."""
        return SeriesMatrix(
            tuple(c.submatrix(range(row0, row1), range(col0, col1)) for c in self.coeffs),
            exact=self.exact,
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: SuperMatrix) -> "SeriesMatrix":
        return cls((value,), exact=True)

    @classmethod
    def scalar_constant(cls, value: Supernumber) -> "SeriesMatrix":
        return cls((SuperMatrix.from_scalar(value),), exact=True)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[SuperMatrix], exact: bool = False) -> "SeriesMatrix":
        return cls(tuple(coeffs), exact=exact)

    @classmethod
    def identity(cls, context: AlgebraContext, n: int) -> "SeriesMatrix":
        return cls((SuperMatrix.identity(context, n),), exact=True)

    @classmethod
    def zero(cls, context: AlgebraContext, rows: int, cols: int) -> "SeriesMatrix":
        return cls((SuperMatrix.zeros(context, rows, cols),), exact=True)

    @classmethod
    def variable(cls, context: AlgebraContext, n: int = 1) -> "SeriesMatrix":
        """z * I_n as an exact polynomial."""
        return cls((SuperMatrix.zeros(context, n, n), SuperMatrix.identity(context, n)), exact=True)

    # -- linear arithmetic --------------------------------------------------

    def _aligned(self, other: "SeriesMatrix") -> tuple[int, bool]:
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot combine {self.shape} and {other.shape}")
        if self.exact and other.exact:
            return max(self.degree, other.degree), True
        if self.exact:
            return other.degree, False
        if other.exact:
            return self.degree, False
        return min(self.degree, other.degree), False

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        degree, exact = self._aligned(other)
        coeffs = [self.coefficient(n) + other.coefficient(n) for n in range(degree + 1)]
        return SeriesMatrix(tuple(coeffs), exact=exact)

    def __sub__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        degree, exact = self._aligned(other)
        coeffs = [self.coefficient(n) - other.coefficient(n) for n in range(degree + 1)]
        return SeriesMatrix(tuple(coeffs), exact=exact)

    def __neg__(self):
        return SeriesMatrix(tuple(-c for c in self.coeffs), exact=self.exact)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, complex)):
            return SeriesMatrix(tuple(c * scalar for c in self.coeffs), exact=self.exact)
        return NotImplemented

    __rmul__ = __mul__

    def scale_left(self, s: Supernumber) -> "SeriesMatrix":
        return SeriesMatrix(tuple(c.scale_left(s) for c in self.coeffs), exact=self.exact)

    def scale_right(self, s: Supernumber) -> "SeriesMatrix":
        return SeriesMatrix(tuple(c.scale_right(s) for c in self.coeffs), exact=self.exact)

    def shift_up(self) -> "SeriesMatrix":
        """Multiply by z (prepend a zero coefficient)."""
        zero = SuperMatrix.zeros(self.context, *self.shape)
        cap = self.context.max_series_degree
        coeffs = ((zero,) + self.coeffs)[: cap + 1]
        return SeriesMatrix(coeffs, exact=self.exact and self.degree + 1 <= cap)


def star_mul(f: SeriesMatrix, g: SeriesMatrix) -> SeriesMatrix:
    """Cauchy product (f⋆g)_n = sum_u f_u g_{n-u} (left-sided convention)."""
    if f.shape[1] != g.shape[0]:
        raise ShapeMismatch(f"cannot star-multiply {f.shape} by {g.shape}")
    context = f.context
    cap = context.max_series_degree
    if f.exact and g.exact:
        degree = min(f.degree + g.degree, cap)
        exact = f.degree + g.degree <= cap
    elif f.exact:
        degree, exact = g.degree, False
    elif g.exact:
        degree, exact = f.degree, False
    else:
        degree, exact = min(f.degree, g.degree), False
    rows, inner = f.shape
    cols = g.shape[1]
    out = []
    for n in range(degree + 1):
        acc = SuperMatrix.zeros(context, rows, cols)
        for u in range(n + 1):
            if u > f.degree or n - u > g.degree:
                continue
            acc = acc + mat_mul(f.coeffs[u], g.coeffs[n - u])
        out.append(acc)
    return SeriesMatrix(tuple(out), exact=exact)


def star_inverse(f: SeriesMatrix) -> SeriesMatrix:
    """Two-sided star inverse; needs an invertible constant term.

    g_0 = f_0⁻¹ and g_n = -f_0⁻¹ sum_{u=1..n} f_u g_{n-u}.
    """
    if f.shape[0] != f.shape[1]:
        raise ShapeMismatch("star inversion needs square coefficients")
    context = f.context
    try:
        g0 = mat_invert(f.coeffs[0])
    except BodySingular as exc:
        raise ConstantTermSingular(str(exc)) from exc
    if f.exact and f.degree == 0:
        return SeriesMatrix((g0,), exact=True)
    degree = context.max_series_degree if f.exact else f.degree
    out = [g0]
    for n in range(1, degree + 1):
        acc = SuperMatrix.zeros(context, *f.shape)
        for u in range(1, n + 1):
            if u > f.degree:
                break
            acc = acc + mat_mul(f.coeffs[u], out[n - u])
        out.append(-mat_mul(g0, acc))
    return SeriesMatrix(tuple(out), exact=False)


def resolvent(a: SuperMatrix, degree: int | None = None) -> SeriesMatrix:
    """(I - zA)^{-star} = sum_n z^n A^n through the requested degree.

    The coefficient sequence is the same for the left and right conventions.
    """
    if a.rows != a.cols:
        raise ShapeMismatch("resolvent needs a square matrix")
    context = a.context
    degree = context.max_series_degree if degree is None else degree
    coeffs = [SuperMatrix.identity(context, a.rows)]
    for _ in range(degree):
        coeffs.append(mat_mul(coeffs[-1], a))
    return SeriesMatrix(tuple(coeffs), exact=False)


def evaluation_tail_bound(f: SeriesMatrix, z0: Supernumber) -> float:
    """Crude geometric tail estimate for evaluating a truncated series.

    Zero for exact polynomials; otherwise assumes the unseen coefficients stay
    below the last stored one and sums the geometric envelope in ||z0||_1.
    """
    if f.exact:
        return 0.0
    q = z0.norm1()
    if q >= 1.0:
        return float("inf")
    last = f.coeffs[-1].norm1()
    return last * q ** (f.degree + 1) / (1.0 - q)


def _evaluate(f: SeriesMatrix, z0: Supernumber, strict: bool, scale) -> SuperMatrix:
    """sum_n scale(f_n, z0^n), stopping at the first vanishing power of z0."""
    if strict:
        bound = evaluation_tail_bound(f, z0)
        if bound > f.context.tol_eq:
            raise TailTooLarge(f"tail estimate {bound:.3e} exceeds tol_eq")
    acc = f.coeffs[0]
    zpow = z0.context.one()
    for n in range(1, len(f.coeffs)):
        zpow = mul(zpow, z0)
        if zpow.is_zero():
            break
        acc = acc + scale(f.coeffs[n], zpow)
    return acc


def evaluate(f: SeriesMatrix, z0: Supernumber, strict: bool = False) -> SuperMatrix:
    """Left evaluation sum_n z0^n f_n.

    With ``strict`` the geometric tail estimate must stay below tol_eq, else
    TailTooLarge.
    """
    return _evaluate(f, z0, strict, SuperMatrix.scale_left)


def evaluate_right(f: SeriesMatrix, z0: Supernumber, strict: bool = False) -> SuperMatrix:
    """Right evaluation sum_n f_n z0^n (for right-sided series); ``strict`` as in evaluate."""
    return _evaluate(f, z0, strict, SuperMatrix.scale_right)


def hermitian_form(f: SeriesMatrix, g: SeriesMatrix) -> SuperMatrix:
    """[F,G] = sum_n g_n* f_n over the shared coefficient range."""
    if f.shape[0] != g.shape[0]:
        raise ShapeMismatch("hermitian form needs matching row counts")
    through = min(f.degree, g.degree)
    acc = mat_mul(adjoint(g.coeffs[0]), f.coeffs[0])
    for n in range(1, through + 1):
        acc = acc + mat_mul(adjoint(g.coeffs[n]), f.coeffs[n])
    return acc


def backward_shift(f: SeriesMatrix) -> SeriesMatrix:
    """R0 F = f_1 + z f_2 + ...; for lambda != 0 this is (F(lambda)-F(0))/lambda."""
    if len(f.coeffs) == 1:
        return SeriesMatrix((SuperMatrix.zeros(f.context, *f.shape),), exact=f.exact)
    return SeriesMatrix(f.coeffs[1:], exact=f.exact)


# ---------------------------------------------------------------------------
# Laurent series / Wiener-Grassmann algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaurentSeries:
    """Two-sided finitely supported series sum_{|n|<=window} z^n f_n."""

    window: int
    coeffs: Mapping[int, SuperMatrix]
    shape: tuple[int, int] = (0, 0)

    def __post_init__(self):
        cleaned = {int(n): c for n, c in self.coeffs.items() if not c.is_zero()}
        if not cleaned and self.shape == (0, 0):
            raise ValueError("empty Laurent series needs an explicit shape")
        shape = self.shape if not cleaned else next(iter(cleaned.values())).shape
        for n, c in cleaned.items():
            if abs(n) > self.window:
                raise ValueError(f"coefficient at power {n} outside window {self.window}")
            if c.shape != shape:
                raise ShapeMismatch("Laurent coefficients must share one shape")
        object.__setattr__(self, "coeffs", dict(sorted(cleaned.items())))
        object.__setattr__(self, "shape", shape)

    @property
    def context(self) -> AlgebraContext:
        return next(iter(self.coeffs.values())).context

    def coefficient(self, n: int) -> SuperMatrix:
        got = self.coeffs.get(n)
        if got is not None:
            return got
        ctx = self.context if self.coeffs else None
        if ctx is None:
            raise ValueError("empty series has no context")
        return SuperMatrix.zeros(ctx, *self.shape)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def norm1(self) -> float:
        return sum(c.norm1() for c in self.coeffs.values())

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        window = max(self.window, other.window)
        keys = set(self.coeffs) | set(other.coeffs)
        out = {}
        for n in sorted(keys):
            a = self.coeffs.get(n)
            b = other.coeffs.get(n)
            out[n] = a + b if (a is not None and b is not None) else (a if a is not None else b)
        return LaurentSeries(window, out, shape=self.shape)

    def __sub__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + LaurentSeries(other.window, {n: -c for n, c in other.coeffs.items()}, shape=other.shape)

    @classmethod
    def from_series(cls, f: SeriesMatrix) -> "LaurentSeries":
        return cls(f.degree, {n: c for n, c in enumerate(f.coeffs)}, shape=f.shape)

    @classmethod
    def constant(cls, value: SuperMatrix) -> "LaurentSeries":
        return cls(0, {0: value}, shape=value.shape)


def laurent_star_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Exact convolution of finitely supported Laurent series (windows add)."""
    if f.shape[1] != g.shape[0]:
        raise ShapeMismatch(f"cannot star-multiply {f.shape} by {g.shape}")
    out: dict[int, SuperMatrix] = {}
    for nf in f.support():
        for ng in g.support():
            term = mat_mul(f.coeffs[nf], g.coeffs[ng])
            n = nf + ng
            out[n] = out[n] + term if n in out else term
    return LaurentSeries(f.window + g.window, out, shape=(f.shape[0], g.shape[1]))


def project_plus(f: LaurentSeries) -> LaurentSeries:
    """Keep powers n >= 0 (the one-sided subalgebra)."""
    return LaurentSeries(f.window, {n: c for n, c in f.coeffs.items() if n >= 0}, shape=f.shape)


def project_minus(f: LaurentSeries) -> LaurentSeries:
    """Keep powers n <= 0."""
    return LaurentSeries(f.window, {n: c for n, c in f.coeffs.items() if n <= 0}, shape=f.shape)


def _on_circle(f: LaurentSeries, points: int) -> tuple[np.ndarray, np.ndarray]:
    """f(e^{2πij/points}) as ascending monomial keys, always with key 0 (the body),
    and a (keys, points, p, q) stack."""
    powers = sorted(f.coeffs)
    keys = np.unique(np.concatenate([np.zeros(1, dtype=np.uint64)] + [f.coeffs[n].keys for n in powers]))
    coeffs = np.stack([_spread(keys, f.coeffs[n].keys, f.coeffs[n].stack) for n in powers], axis=1)
    phases = np.exp(2j * np.pi * np.outer(np.arange(points) / points, powers))
    return keys, np.einsum("mn,knpq->kmpq", phases, coeffs)


def wiener_is_invertible(f: LaurentSeries, grid_points: int | None = None) -> bool:
    """Wiener-Lévy criterion: body determinant nonvanishing on the circle.

    Invertibility in the Wiener-Grassmann algebra depends only on the body,
    so souls never change the verdict.
    """
    if f.shape[0] != f.shape[1]:
        raise ShapeMismatch("invertibility needs square coefficients")
    points = grid_points or max(256, 16 * (2 * f.window + 1))
    dets = np.linalg.det(_on_circle(f, points)[1][0])
    return bool(np.abs(dets).min() > f.context.tol_body)


def wiener_invert(f: LaurentSeries, grid_points: int | None = None,
                  max_grid: int = 1 << 16) -> LaurentSeries:
    """Inverse in the Wiener-Grassmann algebra, pointwise on the circle.

    A point e^{it} is a scalar, so F(e^{it})⁻¹ is the inverse's value there: a
    body inverse plus the soul series sum_k (-B⁻¹S)^k B⁻¹ (F = B + S), which
    ends by nilpotency within N steps, on the (monomial, grid point) stack;
    then one FFT along the grid axis.  The grid doubles until every kept
    (power, monomial) coefficient (largest entry above tol_eq·1e-5) moves by at
    most tol_eq/100 and no new one is kept.
    """
    if not wiener_is_invertible(f, grid_points):
        raise NotInvertible("body determinant vanishes on the circle")
    context = f.context
    tol = context.tol_eq * 1e-2
    points = grid_points or max(64, 8 * (2 * f.window + 1))
    previous = None
    while points <= max_grid:
        keys, total = _inverse(context, *_on_circle(f, points))  # f's monomials fix the keys on every grid
        half = points // 2
        powers = np.arange(-half, half)
        # g_n = (1/M) sum_j F(t_j)^{-1} e^{-i n t_j}: numpy's forward FFT over M
        spectrum = np.fft.fft(total, axis=1)[:, powers % points] / points
        kept = np.abs(spectrum).max(axis=(2, 3)) > tol * 1e-3
        if previous is not None:
            old_spectrum, old_kept = previous
            lo = half - old_kept.shape[1] // 2
            hi = lo + old_kept.shape[1]
            inner = kept[:, lo:hi]
            drift = np.abs(spectrum[:, lo:hi] - old_spectrum).max(axis=(2, 3))[inner].max(initial=0.0)
            if drift <= tol and not (kept[:, :lo].any() or kept[:, hi:].any() or (inner & ~old_kept).any()):
                break
        previous = spectrum, kept
        points *= 2
    else:
        raise WindowTooSmall("Fourier coefficients of the inverse do not stabilize")
    out = {int(powers[col]): SuperMatrix(context, keys[kept[:, col]], spectrum[kept[:, col], col])
           for col in np.flatnonzero(kept.any(axis=0))}
    return LaurentSeries(max([f.window, *map(abs, out)]), out, shape=f.shape)


def weak_plus_invertibility(f: SeriesMatrix, radial_points: int = 24, angular_points: int | None = None) -> bool:
    """Weak invertibility test in the one-sided algebra (scalar case).

    The body of f(z) depends only on z_B, so the criterion is nonvanishing of
    the scalar body series on the closed unit disk, tested on a polar grid
    with the tol_body margin.
    """
    if f.shape != (1, 1):
        raise ShapeMismatch("weak invertibility test is scalar-only")
    poly = np.array([c[0, 0].body for c in f.coeffs], dtype=complex)
    m = angular_points or max(128, 8 * (f.degree + 1))
    angles = np.exp(2j * np.pi * np.arange(m) / m)
    tol = f.context.tol_body
    for r in np.linspace(0.0, 1.0, radial_points):
        points = r * angles
        values = np.polyval(poly[::-1], points)
        if np.abs(values).min() <= tol:
            return False
    return True
