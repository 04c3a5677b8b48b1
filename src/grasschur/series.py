"""Truncated power series and Laurent series with supermatrix coefficients.

Both series classes derive from ``matrix.Stacked``, the layout they share with
``SuperMatrix``: a ``SeriesMatrix`` F(z) = Σ_n z^n f_n holds one complex
(keys, degree+1, rows, cols) stack.  Star (Cauchy) products (f⋆g)_n = Σ_u f_u g_{n-u}
and star inverses share ``algebra._pair_product`` and ``matrix._inverse`` (the
soul recursion solved grade by grade) with matrices, with a truncated degree
convolution as the payload product.  A series is one-sided (powers of z on
the left of the coefficients); the ``exact`` flag marks polynomials whose
higher coefficients are exactly zero, so products of polynomials keep their
full degree while products with truncated series drop to the degree that is
exactly computable.  A two-sided
``LaurentSeries`` keeps one (keys, span, rows, cols) stack from its lowest power
and models the Wiener-Grassmann algebra: invertibility is decided on the body
alone, and an inverse G is returned only when ‖F ⋆ G − I‖₁ ≤ tol_eq.
"""
from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .algebra import AlgebraContext, Supernumber, _cmul, _pair_product, _require_same_context, _within_budget, mul
from .errors import (
    BodySingular,
    ConstantTermSingular,
    ContextMismatch,
    DomainViolation,
    NotInvertible,
    ShapeMismatch,
    WindowTooSmall,
)
from .matrix import Stacked, SuperMatrix, _add, _body_inverse, _inverse, _matmul, _spread, adjoint, mat_mul


class SeriesMatrix(Stacked):
    """One-sided power series F(z) = sum_n z^n f_n, truncated at its degree:
    ``stack[s, n]`` is the coefficient matrix of monomial ``keys[s]`` in f_n.
    ``coeffs`` and ``coefficient(n)`` view the f_n as supermatrices."""

    __slots__ = ("exact", "_coeffs")
    _own = ("exact",)

    def __new__(cls, coeffs: Sequence[SuperMatrix], exact: bool = False):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant coefficient")
        if any(c.shape != coeffs[0].shape for c in coeffs):
            raise ShapeMismatch("series coefficients must share one shape")
        if any(c.context != coeffs[0].context for c in coeffs):
            raise ContextMismatch("series coefficients must share one context")
        keys = np.unique(np.concatenate([c.keys for c in coeffs]))
        return cls._of(coeffs[0].context, keys, np.stack([_spread(keys, c.keys, c.stack) for c in coeffs], 1), exact)

    @classmethod
    def _of(cls, context: AlgebraContext, keys, stack, exact: bool) -> "SeriesMatrix":
        """The series of a key array and a (keys, degree+1, rows, cols) stack."""
        if 0 in stack.shape[2:]:
            raise ValueError("series coefficients need rows, cols >= 1")
        if stack.shape[1] - 1 > context.max_series_degree:
            raise DomainViolation(f"degree {stack.shape[1] - 1} exceeds max_series_degree {context.max_series_degree}")
        return super()._of(context, keys, stack, bool(exact))

    def __reduce__(self):
        return type(self), (self.coeffs, self.exact)

    # -- views -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.stack.shape[1] - 1

    @property
    def coeffs(self) -> tuple[SuperMatrix, ...]:
        if getattr(self, "_coeffs", None) is None:
            object.__setattr__(self, "_coeffs", tuple(
                SuperMatrix._of(self.context, self.keys, self.stack[:, n]) for n in range(self.degree + 1)))
        return self._coeffs

    def coefficient(self, n: int) -> SuperMatrix:
        """n-th coefficient; zero beyond the stored degree for exact series."""
        if n < 0:
            raise IndexError("negative power in a one-sided series")
        if n <= self.degree:
            return self.coeffs[n]
        if self.exact:
            return SuperMatrix.zeros(self.context, *self.shape)
        raise IndexError(f"coefficient {n} beyond truncation degree {self.degree}")

    def truncated(self, degree: int) -> "SeriesMatrix":
        """f_0..f_degree; an exact series is zero-padded and stays exact up to its own degree.
        A degree below 0 raises DomainViolation."""
        if degree < 0:
            raise DomainViolation(f"degree must be >= 0, got {degree!r}")
        if degree >= self.degree and not self.exact:
            return self
        stack = self.stack[:, :degree + 1]
        pad = np.zeros((len(self.keys), degree + 1 - stack.shape[1], *self.shape), dtype=complex)
        return SeriesMatrix._of(self.context, self.keys, np.concatenate((stack, pad), axis=1),
                                self.exact and degree >= self.degree)

    def block(self, row0: int, row1: int, col0: int, col1: int) -> "SeriesMatrix":
        """Coefficientwise submatrix [row0:row1, col0:col1]."""
        return SeriesMatrix._of(self.context, self.keys, self.stack[:, :, row0:row1, col0:col1], self.exact)

    def __repr__(self):
        return f"SeriesMatrix({self.shape[0]}x{self.shape[1]}, degree {self.degree}, exact={self.exact})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: SuperMatrix) -> "SeriesMatrix":
        return cls((value,), exact=True)

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[SuperMatrix], exact: bool = False) -> "SeriesMatrix":
        return cls(coeffs, exact=exact)

    @classmethod
    def identity(cls, context: AlgebraContext, n: int) -> "SeriesMatrix":
        return cls((SuperMatrix.identity(context, n),), exact=True)

    @classmethod
    def zero(cls, context: AlgebraContext, rows: int, cols: int) -> "SeriesMatrix":
        return cls((SuperMatrix.zeros(context, rows, cols),), exact=True)

    # -- linear arithmetic --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, SeriesMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot combine {self.shape} and {other.shape}")
        degree, exact = _result_degree(self, other, max(self.degree, other.degree))
        a, b = self.truncated(degree), other.truncated(degree)
        return SeriesMatrix._of(_require_same_context(a, b), *_add(a.keys, a.stack, b.keys, b.stack), exact)

    def shift_up(self) -> "SeriesMatrix":
        """Multiply by z (prepend a zero coefficient)."""
        cap = self.context.max_series_degree
        zero = np.zeros((len(self.keys), 1, *self.shape), dtype=complex)
        return SeriesMatrix._of(self.context, self.keys, np.concatenate((zero, self.stack), axis=1)[:, :cap + 1],
                                self.exact and self.degree + 1 <= cap)


def _result_degree(f: SeriesMatrix, g: SeriesMatrix, exact_degree: int) -> tuple[int, bool]:
    """Degree and flag of a result: exact_degree (capped) when f and g are both exact,
    else the lowest degree among the truncated ones."""
    if f.exact and g.exact:
        cap = f.context.max_series_degree
        return min(exact_degree, cap), exact_degree <= cap
    return min(h.degree for h in (f, g) if not h.exact), False


def _convolve(x: np.ndarray, y: np.ndarray, degree: int) -> np.ndarray:
    """The truncated Cauchy product Σ_u x_u y_{n-u}, n = 0..degree, of two stacks
    over a leading (broadcast) axis, the degree on axis 1 and matrix products of
    the coefficients: the payload operation of star products.  The accumulator
    holds the leading axis innermost in memory, as ``algebra._pair_product``
    gathers its operands."""
    lead = np.broadcast(x[:, 0, 0, 0], y[:, 0, 0, 0]).shape
    out = np.zeros((y.shape[3], x.shape[2], degree + 1, *lead), dtype=complex).T
    for u in range(min(x.shape[1], degree + 1)):
        span = min(y.shape[1], degree + 1 - u)
        out[:, u:u + span] += _matmul(x[:, u:u + 1], y[:, :span])
    return out


def star_mul(f: SeriesMatrix, g: SeriesMatrix) -> SeriesMatrix:
    """Cauchy product (f⋆g)_n = sum_u f_u g_{n-u} (left-sided convention)."""
    if f.shape[1] != g.shape[0]:
        raise ShapeMismatch(f"cannot star-multiply {f.shape} by {g.shape}")
    context = _require_same_context(f, g)
    degree, exact = _result_degree(f, g, f.degree + g.degree)
    return SeriesMatrix._of(context, *_pair_product(context.generators, f.keys, f.stack, g.keys, g.stack,
                                                    partial(_convolve, degree=degree)), exact)


def star_inverse(f: SeriesMatrix) -> SeriesMatrix:
    """Two-sided star inverse; needs an invertible constant term.

    The body series B inverts by g_0 = B_0⁻¹, g_n = -B_0⁻¹ sum_{u=1..n} B_u g_{n-u}
    on complex matrices.  The souls follow by matrix._inverse, which solves
    G = B⁻¹ − (B⁻¹ ⋆ S) ⋆ G grade by grade, with star products as its payload
    operation.
    """
    if f.shape[0] != f.shape[1]:
        raise ShapeMismatch("star inversion needs square coefficients")
    context = f.context
    body = f._body()
    try:
        g0 = _body_inverse(context, body[0])
    except BodySingular as exc:
        raise ConstantTermSingular(str(exc)) from exc
    degree = context.max_series_degree if f.exact and f.degree else f.degree
    g = np.empty((degree + 1, *f.shape), dtype=complex)
    g[0] = g0
    for n in range(1, degree + 1):
        u = min(n, f.degree)
        g[n] = -g0 @ (body[1:u + 1] @ g[n - 1::-1][:u]).sum(axis=0)
    return SeriesMatrix._of(context, *_inverse(context, f.keys, f.stack, g, partial(_convolve, degree=degree)),
                            f.exact and not f.degree)


def evaluation_tail_bound(f: SeriesMatrix, z0: Supernumber) -> float:
    """Crude geometric tail estimate for evaluating a truncated series: the
    report on what evaluate and evaluate_right leave out.

    Zero for exact polynomials; otherwise assumes the unseen coefficients stay
    below the last stored one and sums the geometric envelope in ||z0||_1.
    """
    if f.exact:
        return 0.0
    q = z0.norm1()
    if q >= 1.0:
        return float("inf")
    last = float(np.abs(f.stack[:, -1]).sum())
    return last * q ** (f.degree + 1) / (1.0 - q)


def _powers(f: SeriesMatrix, z0: Supernumber) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keys and (keys, m+1, 1, 1) stack of z0^0..z0^m, m stopping before the first
    vanishing power or at f's degree, and the stack of f_0..f_m."""
    _require_same_context(f, z0)
    powers = [z0.context.one()]
    while len(powers) <= f.degree and not (power := mul(powers[-1], z0)).is_zero():
        powers.append(power)
    z = SuperMatrix.column(powers)
    return z.keys, z.stack[..., None], f.stack[:, :len(powers)]


def _degree_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Σ_n x_n y_n over the degree axis 1 of two stacks, one of them scalar (1x1).

    The summation order is pinned: numpy sums pairwise when the reduced axis is
    innermost in memory and in sequence when it is not, so the products are
    summed from a C-ordered (pairs, degree, rows, cols) copy, whatever the
    operands' layout."""
    return np.ascontiguousarray(_cmul(x, y)).sum(axis=1)


def evaluate(f: SeriesMatrix, z0: Supernumber) -> SuperMatrix:
    """Left evaluation sum_n z0^n f_n over the stored coefficients: the product of
    the z0-power stack with f.

    A truncated series drops its tail without a check; evaluation_tail_bound
    reports an estimate of it.
    """
    keys, powers, coeffs = _powers(f, z0)
    return SuperMatrix._of(f.context, *_pair_product(f.context.generators, keys, powers, f.keys, coeffs, _degree_dot))


def evaluate_right(f: SeriesMatrix, z0: Supernumber) -> SuperMatrix:
    """Right evaluation sum_n f_n z0^n (for right-sided series); the tail as in evaluate."""
    keys, powers, coeffs = _powers(f, z0)
    return SuperMatrix._of(f.context, *_pair_product(f.context.generators, f.keys, coeffs, keys, powers, _degree_dot))


def hermitian_form(f: SeriesMatrix, g: SeriesMatrix) -> SuperMatrix:
    """[F,G] = sum_n g_n* f_n over the shared coefficient range."""
    if f.shape[0] != g.shape[0]:
        raise ShapeMismatch("hermitian form needs matching row counts")
    terms = [mat_mul(adjoint(gn), fn) for fn, gn in zip(f.coeffs, g.coeffs)]
    return sum(terms[1:], terms[0])


def backward_shift(f: SeriesMatrix) -> SeriesMatrix:
    """R0 F = f_1 + z f_2 + ...; for lambda != 0 this is (F(lambda)-F(0))/lambda."""
    if not f.degree:
        return SeriesMatrix._of(f.context, f.keys[:0], f.stack[:0], f.exact)
    return SeriesMatrix._of(f.context, f.keys, f.stack[:, 1:], f.exact)


# ---------------------------------------------------------------------------
# Laurent series / Wiener-Grassmann algebra
# ---------------------------------------------------------------------------


class LaurentSeries(Stacked):
    """Two-sided finitely supported series sum_{|n|<=window} z^n f_n: ``stack[s, n - low]``
    holds monomial ``keys[s]`` of f_n, with no all-zero end power; ``coeffs`` views the
    nonzero f_n by ascending power.  Context and shape come from the coefficients given (at
    least one, zero ones included); the zero series keeps them as no key over one power at
    ``low`` 0.  A stack of more than ``algebra._MAX_ENTRIES`` entries raises TooLarge before it is allocated."""

    __slots__ = ("window", "low")
    _own = ("window", "low")
    __hash__ = None

    def __new__(cls, window: int, coeffs: Mapping[int, SuperMatrix]):
        if not coeffs:
            raise ValueError("a Laurent series needs at least one coefficient")
        first = next(iter(coeffs.values()))
        if any(c.shape != first.shape for c in coeffs.values()):
            raise ShapeMismatch("Laurent coefficients must share one shape")
        if any(c.context != first.context for c in coeffs.values()):
            raise ContextMismatch("Laurent coefficients must share one context")
        coeffs = {int(n): c for n, c in coeffs.items() if not c.is_zero()}
        if any(abs(n) > window for n in coeffs):
            raise ValueError(f"coefficient at power {max(coeffs, key=abs)} outside window {window}")
        low = min(coeffs, default=0)
        keys = np.unique(np.concatenate([first.keys, *(c.keys for c in coeffs.values())]))
        span = max(coeffs, default=-1) - low + 1
        _within_budget(len(keys) * span * first.rows * first.cols,
                       f"{len(keys)} keys over {span} powers of {first.rows}x{first.cols} coefficients")
        stack = np.zeros((len(keys), span, *first.shape), dtype=complex)
        for n, c in coeffs.items():  # placed, not added: a -0.0 entry stays -0.0
            stack[np.searchsorted(keys, c.keys), n - low] = c.stack
        return cls._of(first.context, keys, stack, window, low)

    @classmethod
    def _of(cls, context: AlgebraContext, keys, stack, window: int, low: int) -> "LaurentSeries":
        """The series of a key array, a (keys, span, rows, cols) stack from power ``low``
        and its window; drops all-zero end powers."""
        powers = np.flatnonzero(stack.any(axis=(0, 2, 3)))
        if not len(powers):
            return super()._of(context, keys[:0], np.zeros((0, 1, *stack.shape[2:]), dtype=complex), window, 0)
        return super()._of(context, keys, stack[:, powers[0]:powers[-1] + 1], window, low + int(powers[0]))

    def __reduce__(self):  # the zero series keeps its context and shape on a zero coefficient
        return type(self), (self.window, self.coeffs or {0: self.coefficient(0)})

    @property
    def coeffs(self) -> dict[int, SuperMatrix]:
        return {self.low + j: self.coefficient(self.low + j)
                for j in np.flatnonzero(self.stack.any(axis=(0, 2, 3))).tolist()}

    def coefficient(self, n: int) -> SuperMatrix:
        if 0 <= n - self.low < self.stack.shape[1]:
            return SuperMatrix._of(self.context, self.keys, self.stack[:, n - self.low])
        return SuperMatrix.zeros(self.context, *self.shape)

    def __add__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeMismatch(f"cannot combine {self.shape} and {other.shape}")
        context = _require_same_context(self, other)
        low, end = min(self.low, other.low), max(h.low + h.stack.shape[1] for h in (self, other))
        x, y = (np.pad(h.stack, ((0, 0), (h.low - low, end - h.low - h.stack.shape[1]), (0, 0), (0, 0)))
                for h in (self, other))  # both stacks over the powers low..end-1
        return LaurentSeries._of(context, *_add(self.keys, x, other.keys, y), max(self.window, other.window), low)

    @classmethod
    def constant(cls, value: SuperMatrix) -> "LaurentSeries":
        return cls(0, {0: value})


def laurent_star_mul(f: LaurentSeries, g: LaurentSeries) -> LaurentSeries:
    """Exact convolution of finitely supported Laurent series (windows add): one
    Grassmann product with the untruncated degree convolution as payload."""
    if f.shape[1] != g.shape[0]:
        raise ShapeMismatch(f"cannot star-multiply {f.shape} by {g.shape}")
    context = _require_same_context(f, g)
    return LaurentSeries._of(context, *_pair_product(
        context.generators, f.keys, f.stack, g.keys, g.stack,
        partial(_convolve, degree=f.stack.shape[1] + g.stack.shape[1] - 2)), f.window + g.window, f.low + g.low)


def project_plus(f: LaurentSeries) -> LaurentSeries:
    """Keep powers n >= 0 (the one-sided subalgebra)."""
    return LaurentSeries._of(f.context, f.keys, f.stack[:, max(0, -f.low):], f.window, max(f.low, 0))


def project_minus(f: LaurentSeries) -> LaurentSeries:
    """Keep powers n <= 0."""
    return LaurentSeries._of(f.context, f.keys, f.stack[:, :max(0, 1 - f.low)], f.window, f.low)


def _on_circle(stack: np.ndarray, low: int, points: int) -> np.ndarray:
    """The (keys, points, p, q) values at e^{2πij/points} of a (keys, span, p, q) stack of
    powers from ``low``: the phase matrix times the stack.  TooLarge before the phase
    matrix or the values would exceed ``algebra._MAX_ENTRIES`` entries."""
    keys, span, p, q = stack.shape
    _within_budget(points * max(span, keys * p * q),
                   f"{points} grid points over {span} powers of {keys} monomials of {p}x{q} coefficients")
    phases = np.exp(2j * np.pi * np.outer(np.arange(points) / points, np.arange(span) + low))
    return np.einsum("mn,knpq->kmpq", phases, stack)


def _zero_free(coeffs: np.ndarray, context: AlgebraContext, inside: bool) -> bool:
    """Whether sum_n coeffs[n] z^n has no zero on the unit circle (with ``inside``: on the
    closed disk), decided from its roots (``np.roots``) with the tol_body margin: not when
    every coefficient is at most tol_body, when ``inside`` and a root has |r| <= 1, or when
    |p| <= tol_body at a root's radial projection r/|r|, which also catches a double root
    on the circle that the eigenvalues place slightly off it."""
    tol = context.tol_body
    if np.abs(coeffs).max(initial=0.0) <= tol:
        return False
    roots = np.roots(coeffs[::-1])
    if inside and (np.abs(roots) <= 1.0).any():
        return False
    return bool((np.abs(np.polyval(coeffs[::-1], np.exp(1j * np.angle(roots)))) > tol).all())


def wiener_is_invertible(f: LaurentSeries) -> bool:
    """Wiener-Lévy criterion: body determinant nonvanishing on the circle.

    Invertibility in the Wiener-Grassmann algebra depends only on the body, so souls
    never change the verdict.  With p x p coefficients at `span` consecutive powers
    from `low`, z^(-p·low) det F_B(z) is a polynomial of m = p(span - 1) + 1
    coefficients: one FFT of its values at the m-th roots of unity gives them, and
    ``_zero_free`` decides from its roots.
    """
    if f.shape[0] != f.shape[1]:
        raise ShapeMismatch("invertibility needs square coefficients")
    points = f.shape[0] * (f.stack.shape[1] - 1) + 1
    dets = np.linalg.det(_on_circle(f._body()[None], 0, points)[0])
    return _zero_free(np.fft.fft(dets) / points, f.context, inside=False)


_KEPT = 1e-5  # cut for keeping a coefficient of the inverse, relative to tol_eq; what it drops is inside the certificate
_MAX_GRID = 1 << 16  # largest grid wiener_invert tries before WindowTooSmall


def wiener_invert(f: LaurentSeries) -> LaurentSeries:
    """Inverse G in the Wiener-Grassmann algebra, pointwise on the circle, certified by
    ‖F ⋆ G − I‖₁ ≤ tol_eq over every power.

    A point e^{it} is a scalar, so F(e^{it})⁻¹ is G's value there: with F = B + S,
    the W with W = B⁻¹ − B⁻¹S W, solved grade by grade on the (monomial, grid
    point) stack by matrix._inverse, which ends within N grades; then one FFT
    along the grid.  The grid starts at 8 points per stored power on either side
    (at least 64) and doubles until G certifies; WindowTooSmall if no grid up to
    ``_MAX_GRID`` points does.
    """
    if not wiener_is_invertible(f):
        raise NotInvertible("body determinant vanishes on the circle")
    context = f.context
    identity = LaurentSeries.constant(SuperMatrix.identity(context, f.shape[0]))
    points = max(64, 8 * (2 * max(-f.low, f.low + f.stack.shape[1] - 1) + 1))
    on_keys = np.union1d(np.zeros(1, dtype=np.uint64), f.keys)  # f's monomials and the body, on every grid
    spread = _spread(on_keys, f.keys, f.stack)
    while points <= _MAX_GRID:
        stack = _on_circle(spread, f.low, points)
        keys, total = _inverse(context, on_keys, stack, np.linalg.inv(stack[0]), _matmul)
        half = points // 2
        # g_n = (1/M) sum_j F(t_j)^{-1} e^{-i n t_j}, n = -M/2..M/2-1: numpy's forward FFT over M
        spectrum = np.fft.fft(total, axis=1)[:, np.arange(-half, half) % points] / points
        kept = np.abs(spectrum).max(axis=(2, 3)) > context.tol_eq * _KEPT
        window = max([f.window, *np.abs(np.flatnonzero(kept.any(axis=0)) - half).tolist()])
        g = LaurentSeries._of(context, keys, np.where(kept[..., None, None], spectrum, 0), window, -half)
        if (laurent_star_mul(f, g) - identity).norm1() <= context.tol_eq:
            return g
        points *= 2
    raise WindowTooSmall(f"no grid up to {_MAX_GRID} points certifies the inverse")


def weak_plus_invertibility(f: SeriesMatrix) -> bool:
    """Weak invertibility test in the one-sided algebra (scalar case).

    The body of f(z) depends only on z_B, so the criterion is that the stored scalar
    body polynomial f_0 + f_1 z + ... + f_degree z^degree has no zero on the closed
    unit disk, decided by ``_zero_free`` from its degree roots with the tol_body margin.
    """
    if f.shape != (1, 1):
        raise ShapeMismatch("weak invertibility test is scalar-only")
    return _zero_free(f._body()[:, 0, 0], f.context, inside=True)
