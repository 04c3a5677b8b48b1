"""Arithmetic in the Grassmann algebra with finitely many anticommuting generators.

A supernumber is a complex linear combination of basis monomials
``i_{a1} i_{a2} ... i_{at}`` with ``a1 < a2 < ... < at``, where the generators
satisfy ``i_n i_m + i_m i_n = 0`` (so ``i_n**2 = 0``).  Each monomial is encoded
as a machine-word bit set: bit ``k-1`` set means generator ``i_k`` is present; the
empty set is the unit.  With ``N`` generators every soul (body-free part) is
nilpotent of index at most ``N+1``, which makes inverses, roots and analytic
extensions finite sums.

The coefficient field is complex double precision.  All values are immutable;
every operation is a pure function of its inputs.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .errors import BodyZero, BranchCut, ContextMismatch, DomainViolation, TooLarge

# A multi-index is an int bit set over generator slots 1..64.
MultiIndex = int

_REAL_TOL = 1e-12  # relative 1-norm tolerance of z† = z (classify), M* = M and J J = I


def index_from_generators(generators: Iterable[int]) -> MultiIndex:
    """Bit set for the monomial with the given (1-based) generator numbers."""
    bits = 0
    for g in generators:
        if g < 1:
            raise ValueError(f"generator numbers are 1-based, got {g}")
        bit = 1 << (g - 1)
        if bits & bit:
            raise ValueError(f"repeated generator {g}")
        bits |= bit
    return bits


def index_to_generators(index: MultiIndex) -> tuple[int, ...]:
    """Strictly increasing generator numbers of a bit set."""
    out = []
    k = 1
    while index:
        if index & 1:
            out.append(k)
        index >>= 1
        k += 1
    return tuple(out)


def grade(index: MultiIndex) -> int:
    """Number of generators in the monomial."""
    return index.bit_count()


@functools.lru_cache(maxsize=1 << 16)
def term_order(index: MultiIndex) -> tuple[int, tuple[int, ...]]:
    """Sort key of the canonical term order: by grade, then lexicographically by generators."""
    return grade(index), index_to_generators(index)


def merge_swap_count(alpha: MultiIndex, beta: MultiIndex) -> int:
    """Transpositions needed to sort the concatenation of two ordered monomials.

    Equals the number of pairs (a, b) with a in alpha, b in beta and a > b;
    computed by popcounts, and cross-checked in the test suite against a
    bubble-sort oracle.
    """
    count = 0
    b = beta
    while b:
        low = b & -b
        count += (alpha >> low.bit_length()).bit_count()
        b ^= low
    return count


def basis_mul(alpha: MultiIndex, beta: MultiIndex) -> tuple[int, MultiIndex] | None:
    """Product of two basis monomials.

    Returns ``(sign, gamma)`` with ``i_alpha i_beta = sign * i_gamma``, or
    ``None`` when the monomials share a generator (the product is zero).
    """
    if alpha & beta:
        return None
    sign = -1 if merge_swap_count(alpha, beta) & 1 else 1
    return sign, alpha | beta


@dataclass(frozen=True)
class AlgebraContext:
    """Shared configuration: generator count, tolerances, series truncation.

    ``tol_body`` is the absolute threshold for body-nonzero tests, ``tol_eq``
    the relative tolerance for reconstruction checks, ``max_series_degree``
    the default truncation degree for power series.
    """

    generators: int
    tol_body: float = 1e-10
    tol_eq: float = 1e-9
    max_series_degree: int = 32

    def __post_init__(self):
        for name, kind in (("generators", int), ("max_series_degree", int), ("tol_body", Real), ("tol_eq", Real)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {'an int' if kind is int else 'a real number'}, got {value!r}")
        if not 1 <= self.generators <= 64:
            raise ValueError(f"generator count must be in 1..64, got {self.generators}")
        if not (0 < self.tol_body < math.inf and 0 < self.tol_eq < math.inf):  # NaN fails too
            raise ValueError("tolerances must be positive and finite")
        if self.max_series_degree < 0:
            raise ValueError("max_series_degree must be nonnegative")

    # -- constructors -------------------------------------------------

    def zero(self) -> "Supernumber":
        return Supernumber(self, {})

    def one(self) -> "Supernumber":
        return Supernumber(self, {0: 1.0 + 0.0j})

    def scalar(self, value: complex) -> "Supernumber":
        return Supernumber(self, {0: complex(value)})

    def generator(self, k: int) -> "Supernumber":
        """The generator i_k, 1-based."""
        if not 1 <= k <= self.generators:
            raise ValueError(f"generator {k} outside 1..{self.generators}")
        return Supernumber(self, {1 << (k - 1): 1.0 + 0.0j})

    def basis(self, generators: Iterable[int]) -> "Supernumber":
        """Basis monomial i_{a1}...i_{at} for strictly increasing generators."""
        return Supernumber(self, {index_from_generators(generators): 1.0 + 0.0j})

    def from_terms(self, terms: Mapping[MultiIndex | tuple[int, ...], complex]) -> "Supernumber":
        """Supernumber from a mapping of multi-indices (bit sets or tuples) to coefficients."""
        raw: dict[int, complex] = {}
        for key, value in terms.items():
            idx = index_from_generators(key) if isinstance(key, tuple) else int(key)
            raw[idx] = raw.get(idx, 0j) + complex(value)
        return Supernumber(self, raw)


class Supernumber:
    """Element of the truncated Grassmann algebra, stored sparsely.

    The term map is canonical: keys ascending, no exactly-zero coefficients.
    Ascending key order is load-bearing — it fixes the float accumulation
    order of products so results are reproducible and comparable bit-for-bit
    with the dense oracle.
    """

    __slots__ = ("context", "_terms")

    def __init__(self, context: AlgebraContext, terms: Mapping[int, complex]):
        width_mask = ~((1 << context.generators) - 1)
        canonical: dict[int, complex] = {}
        for key in sorted(terms):
            if key & width_mask:
                raise ValueError(
                    f"multi-index {index_to_generators(key)} exceeds {context.generators} generators"
                )
            value = complex(terms[key])
            if value != 0:
                canonical[key] = value
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_terms", canonical)

    @classmethod
    def _canonical(cls, context: AlgebraContext, terms: dict[int, complex]) -> "Supernumber":
        """Wrap a term map that is already canonical, without copying or checking it.

        The caller guarantees ascending int keys within the context's width and
        complex values, none of them zero.
        """
        z = object.__new__(cls)
        object.__setattr__(z, "context", context)
        object.__setattr__(z, "_terms", terms)
        return z

    def __setattr__(self, name, value):  # immutable by construction
        raise AttributeError("Supernumber is immutable")

    def __reduce__(self):  # copy and pickle rebuild through the checking constructor
        return type(self), (self.context, self._terms)

    # -- views ---------------------------------------------------------

    @property
    def terms(self) -> dict[int, complex]:
        """Copy of the canonical term map (bit set -> coefficient)."""
        return dict(self._terms)

    @property
    def body(self) -> complex:
        """Coefficient of the unit monomial."""
        return self._terms.get(0, 0j)

    @property
    def soul(self) -> "Supernumber":
        """The number minus its body."""
        rest = {k: v for k, v in self._terms.items() if k}
        return Supernumber._canonical(self.context, rest)

    def is_zero(self) -> bool:
        return not self._terms

    def max_grade(self) -> int:
        return max((grade(k) for k in self._terms), default=0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Supernumber):
            return linear_combine([(1.0, self), (1.0, other)])
        if isinstance(other, (int, float, complex)):
            return linear_combine([(1.0, self), (complex(other), self.context.one())])
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Supernumber):
            return linear_combine([(1.0, self), (-1.0, other)])
        if isinstance(other, (int, float, complex)):
            return linear_combine([(1.0, self), (-complex(other), self.context.one())])
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float, complex)):
            return linear_combine([(complex(other), self.context.one()), (-1.0, self)])
        return NotImplemented

    def __neg__(self):
        return Supernumber._canonical(self.context, {k: -v for k, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Supernumber):
            return mul(self, other)
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return Supernumber._canonical(self.context, {k: p for k, v in self._terms.items() if (p := v * c)})
        return NotImplemented

    __rmul__ = __mul__  # complex scalars are central, and a complex product commutes bit for bit

    def __truediv__(self, other):
        if isinstance(other, (int, float, complex)):
            return self * (1.0 / complex(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = self.context.one()
        for _ in range(n):
            out = mul(out, self)
        return out

    def norm1(self) -> float:
        """Sum of coefficient moduli; submultiplicative."""
        return sum(abs(v) for v in self._terms.values())

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Supernumber):
            return self.context == other.context and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self.context, tuple(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, key=term_order):
            coeff = self._terms[key]
            mono = "".join(f"i{g}" for g in index_to_generators(key)) or "1"
            parts.append(f"({coeff:g})*{mono}" if mono != "1" else f"({coeff:g})")
        return " + ".join(parts)


def _require_same_context(z: Supernumber, w: Supernumber) -> AlgebraContext:
    if z.context != w.context:
        raise ContextMismatch("operands use different algebra contexts")
    return z.context


def linear_combine(pairs: Iterable[tuple[complex, Supernumber]]) -> Supernumber:
    """Complex linear combination, restored to canonical sparse form."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("linear_combine needs at least one term")
    context = pairs[0][1].context
    acc: dict[int, complex] = {}
    for scalar, z in pairs:
        if z.context != context:
            raise ContextMismatch("operands use different algebra contexts")
        c = complex(scalar)
        if c == 0:
            continue
        for key, value in z._terms.items():
            acc[key] = acc.get(key, 0j) + c * value
    return Supernumber._canonical(context, {k: acc[k] for k in sorted(acc) if acc[k]})


_FAST_PATH_MIN_PAIRS = 192
_MASK_BAND = 1 << 16  # entries of the disjoint-pair mask built at once
_DENSE_SLOTS = 1 << 12  # output numbers (2**N keys x coefficient size) held as dense buckets
_MAX_ENTRIES = 1 << 26  # complex entries (1 GiB) one array may take before TooLarge is raised


def _within_budget(entries: int, what: str) -> None:
    """TooLarge, before allocation, when ``what`` would take more than ``_MAX_ENTRIES`` entries."""
    if entries > _MAX_ENTRIES:
        raise TooLarge(f"{what}: more than {_MAX_ENTRIES} entries")


def _in_unit_disk(modulus: float, context: AlgebraContext) -> bool:
    """Whether a body modulus, or a product of them, lies in the open unit disk: below 1 - tol_body."""
    return modulus < 1.0 - context.tol_body


def _settled(z: Supernumber) -> Supernumber:
    """z without its terms of modulus at most 2⁻⁴⁶‖z‖₁ / len(z), which lie below the rounding error of the
    product or sum that made z; the dropped part has 1-norm at most 2⁻⁴⁶‖z‖₁ (128 units of roundoff).  Each
    monomial is its own image under †, so a superreal z stays superreal."""
    terms = z._terms
    if len(terms) < 2:
        return z
    floor = 2.0 ** -46 * z.norm1() / len(terms)
    kept = {key: value for key, value in terms.items() if abs(value) > floor}
    return z if len(kept) == len(terms) else Supernumber._canonical(z.context, kept)


def mul(z: Supernumber, w: Supernumber) -> Supernumber:
    """Noncommutative product ``zw = sum z_a w_b i_a i_b``.

    Only disjoint pairs (a & b == 0) contribute; each product is negated when
    merge_swap_count(a, b) is odd, read from a prefix-parity mask of b.
    Contributions to each output index accumulate in ascending (a, b) order,
    matching the dense oracle's double loop exactly.  Products of at least
    ``_FAST_PATH_MIN_PAIRS`` term pairs take the numpy kernel at every
    generator count; it reproduces the scalar loop bit for bit.
    """
    context = _require_same_context(z, w)
    wterms = w._terms
    if len(z._terms) * len(wterms) >= _FAST_PATH_MIN_PAIRS:
        return Supernumber._canonical(context, _mul_vectorized(context, z._terms, wterms))
    # Bit k of mask(b) = prefix_xor(b) << 1 is the parity of b's bits below k, so
    # merge_swap_count(a, b) is odd exactly when popcount(a & mask(b)) is.
    right = []
    for b, wb in wterms.items():
        prefix = b
        for shift in (1, 2, 4, 8, 16, 32):
            prefix ^= prefix << shift
        right.append((b, wb, prefix << 1))
    acc: dict[int, complex] = {}
    for a, za in z._terms.items():
        for b, wb, mask in right:
            if a & b:
                continue
            t = za * wb
            if (a & mask).bit_count() & 1:
                t = -t
            g = a | b
            acc[g] = acc.get(g, 0j) + t
    return Supernumber._canonical(context, {k: acc[k] for k in sorted(acc) if acc[k]})


def _disjoint_pairs(generators: int, ka, kb):
    """Index arrays of the disjoint pairs (a, b) of two nonempty ascending uint64
    key arrays, in ascending (a, b) order, with each pair's sign flag
    (merge_swap_count(a, b) odd) and product key a | b.
    """
    # The disjoint-pair mask is built a band of rows at a time, so its uint64
    # intermediate stays small.  Bands and the row-major flatnonzero keep the
    # pairs in ascending (a, b) order.
    band = max(1, _MASK_BAND // len(kb))
    flat = np.concatenate([
        np.flatnonzero(np.bitwise_and.outer(ka[lo:lo + band], kb) == 0) + lo * len(kb)
        for lo in range(0, len(ka), band)
    ])
    ia, ib = np.divmod(flat, len(kb))
    del flat
    # Bit k of prefix_xor(b) << 1 is the parity of b's bits below k, so the
    # parity of merge_swap_count(a, b) is that of popcount(a & (prefix_xor(b) << 1)).
    prefix = kb.copy()
    shift = 1
    while shift < generators:
        prefix ^= prefix << shift
        shift <<= 1
    gamma = ka[ia]  # a for now; a | b below
    fold = (prefix << 1)[ib]
    fold &= gamma
    gamma |= kb[ib]
    return ia, ib, (np.bitwise_count(fold) & 1).astype(bool), gamma


def _cmul(x, y):
    """x * y, broadcast, each part rounded as in Python's complex product
    (numpy's complex multiply may differ in the last bit); the result is laid
    out in memory as the operands are."""
    real = x.real * y.real
    real -= x.imag * y.imag
    out = np.empty_like(real, dtype=complex)
    out.real = real
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _pair_product(generators: int, ka, x, kb, y, op):
    """Keys and coefficients of (Σ x_a i_a)(Σ y_b i_b) = Σ ±op(x_a, y_b) i_{a|b}, no zero slot kept.

    ``ka`` and ``kb`` are ascending uint64 key arrays, ``x`` and ``y`` hold one
    coefficient (a number or an array) per key, and ``op`` multiplies them
    batched over a leading pair axis.  The gathered operands are ``.T`` views of
    pair-last arrays: ``op`` indexes them pairs first, but the pair axis is
    innermost in memory (stride ``itemsize``), so each elementwise loop of ``op``
    runs over all pairs, not over one small coefficient.  The pairs of each
    product key are summed by bincount in ascending (a, b) order, as ``mul``'s
    scalar loop sums them, so with ``_cmul`` on numbers the result is
    bit-identical to that loop; no pairwise-summing reduction (np.add.reduceat,
    np.sum) may replace it.  The layout moves memory only: every element sees
    the multiplies and adds of a pairs-first layout, in the same order.
    """
    if not (len(ka) and len(kb)):
        return np.zeros(0, dtype=np.uint64), op(x[:0], y[:0])
    return _pair_apply(generators, _pair_plan(generators, ka, x, kb), y, op)


def _pair_plan(generators: int, ka, x, kb) -> list:
    """The part of ``_pair_product`` fixed by ``x`` and the keys, for any ``y`` on the
    nonempty keys ``kb``: each disjoint pair's b slot, the signed gathered x_a (taken
    along the last axis of x.T, which gives a C-ordered array with the pair axis
    innermost, and viewed pairs first through .T), the product keys a | b, and the
    output keys and bincount index (set by the first ``_pair_apply``, so every apply
    of one plan must give coefficients of one shape)."""
    ia, ib, negate, gamma = _disjoint_pairs(generators, ka, kb)
    # the sign rides on the gather: entries len(ka).. of the doubled x are negated
    x = x.T
    return [ib, np.concatenate((x, -x), axis=-1).take(ia + len(ka) * negate, axis=-1).T, gamma, None]


def _pair_apply(generators: int, plan: list, y, op):
    """Keys and coefficients of ``_pair_product`` for a ``_pair_plan`` and ``y``.

    y_b is gathered as x_a is, and the terms are binned pair-last: bin
    entry·len(keys) + slot (entry counting the coefficient entries of terms.T)
    receives its pairs in ascending (a, b) order, as in a pairs-first layout.
    The kept sums are copied back into a C-ordered (keys, ...) stack."""
    ib, left, gamma, buckets = plan
    terms = op(left, y.T.take(ib, axis=-1).T).T  # the pair axis last
    if buckets is None:
        width = math.prod(terms.shape[:-1])
        if width << generators <= _DENSE_SLOTS:  # a bucket per key below 2**N
            keys, slot = np.arange(1 << generators, dtype=np.uint64), gamma.view(np.int64)
        else:
            keys, slot = np.unique(gamma, return_inverse=True)
        plan[3] = buckets = keys, (np.arange(width)[:, None] * len(keys) + slot).ravel()
    keys, flat = buckets
    sums = np.empty((*terms.shape[:-1], len(keys)), dtype=complex)
    # fill the parts separately: re + 1j*im would turn a -0.0 real part into +0.0
    sums.real = np.bincount(flat, weights=terms.real.ravel(), minlength=sums.size).reshape(sums.shape)
    sums.imag = np.bincount(flat, weights=terms.imag.ravel(), minlength=sums.size).reshape(sums.shape)
    out = sums.T
    hit = out.any(axis=tuple(range(1, out.ndim)))
    return keys[hit], np.ascontiguousarray(out[hit])


def _mul_vectorized(context: AlgebraContext, zterms, wterms) -> dict[int, complex]:
    """Canonical term map of the product, computed on the disjoint key pairs only.

    One kernel for every generator count from 1 to 64: keys are held as uint64,
    so generator 64 fits.  It is bit-identical to the scalar loop in ``mul``.
    """
    keys, values = _pair_product(
        context.generators,
        np.fromiter(zterms.keys(), dtype=np.uint64, count=len(zterms)),
        np.fromiter(zterms.values(), dtype=complex, count=len(zterms)),
        np.fromiter(wterms.keys(), dtype=np.uint64, count=len(wterms)),
        np.fromiter(wterms.values(), dtype=complex, count=len(wterms)), _cmul)
    return dict(zip(keys.tolist(), values.tolist()))


def dagger(z: Supernumber) -> Supernumber:
    """The conjugation z† = conj(z0) + sum (-1)^{t(t-1)/2} conj(z_a) i_a.

    Involutive antiautomorphism: (z†)† = z and (zw)† = w† z†.
    """
    # t(t-1)/2 is odd exactly when t = 2, 3 (mod 4), i.e. when bit 1 of the grade t is set.
    out = {k: (-v.conjugate() if k.bit_count() & 2 else v.conjugate()) for k, v in z._terms.items()}
    return Supernumber._canonical(z.context, out)


@dataclass(frozen=True)
class Classification:
    """Reality/grading/positivity report for a supernumber."""

    is_real: bool
    is_even: bool
    is_odd: bool
    is_superpositive: bool
    is_supernonnegative: bool
    body: complex
    soul: Supernumber


def classify(z: Supernumber) -> Classification:
    """Classify reality (z† = z), grade parity and positivity.

    Superpositive means real with body real part above tol_body; the
    equivalence with the existence of an invertible w with z = ww† is the
    body criterion for superreal elements.
    """
    defect = linear_combine([(1.0, z), (-1.0, dagger(z))]).norm1()
    is_real = defect <= _REAL_TOL * max(1.0, z.norm1())
    grades = {grade(k) for k in z._terms}
    is_even = all(g % 2 == 0 for g in grades)
    is_odd = all(g % 2 == 1 for g in grades)
    body = z.body
    tol = z.context.tol_body
    return Classification(
        is_real=is_real,
        is_even=is_even,
        is_odd=is_odd,
        is_superpositive=is_real and body.real > tol,
        is_supernonnegative=is_real and body.real >= -tol,
        body=body,
        soul=z.soul,
    )


def _soul_series(u: Supernumber, coeffs: Iterator[complex]) -> Supernumber:
    """sum_n c_n u^n for a soul u, with c_0, c_1, ... drawn from ``coeffs``.

    u is split into its even part e and odd part o.  In the supercommutative
    algebra e is central and o·o = 0, so u^n = e^n + n e^(n-1) o and the sum
    is F(e) + F'(e)·o, with F(e) = sum_n c_n e^n and F'(e) = sum_n n c_n
    e^(n-1).  Only the powers e², e³, ... are formed by ``mul``; both sums
    take their terms in place, and one product F'(e)·o is added into F's
    term map, made canonical once at the end.  The sum stops by nilpotency
    within N + 1 terms.  With o = 0 this is the power-by-power loop on u
    itself, bit for bit; with o != 0 the sum is taken in another order than
    over the powers of u and agrees with that sum within rounding.

    A coefficient is drawn only where it multiplies a nonzero term: c_0
    alone for u = 0; with o = 0, c_n for each nonzero u^n; otherwise c_0 ..
    c_m for the first zero power e^m, F'(e) needing c_m for m e^(m-1).
    That is at most one more than the nonzero powers of u, since u^m =
    m e^(m-1) o may vanish.
    """
    context = u.context
    c0 = complex(next(coeffs))
    terms = u._terms
    odd = {key: value for key, value in terms.items() if key.bit_count() & 1}
    e = Supernumber._canonical(context, {key: value for key, value in terms.items()
                                         if not key.bit_count() & 1}) if odd else u
    acc, deriv, previous, power = {0: c0}, {}, {0: 1.0 + 0.0j}, e
    for n in range(1, context.generators + 1):  # power = e^n, previous = e^(n-1)'s terms
        if power.is_zero() and not odd:
            break
        acc[0] += 0j  # a -0.0 part of c_0 reads +0.0 once a term is added, as in linear_combine
        c = complex(next(coeffs))
        if c != 0:
            for key, value in power._terms.items():
                acc[key] = acc.get(key, 0j) + c * value
            if odd:
                c *= n
                for key, value in previous.items():
                    deriv[key] = deriv.get(key, 0j) + c * value
        if power.is_zero():  # F'(e) took m c_m e^(m-1) at the first zero power e^m
            break
        previous, power = power._terms, mul(power, e)
    if odd:
        deriv = {key: deriv[key] for key in sorted(deriv) if deriv[key]}
        product = mul(Supernumber._canonical(context, deriv), Supernumber._canonical(context, odd))._terms
        for key, value in product.items():
            acc[key] = acc.get(key, 0j) + value
    return Supernumber._canonical(context, {k: acc[k] for k in sorted(acc) if acc[k]})


def invert(z: Supernumber) -> Supernumber:
    """Inverse z⁻¹ = z_B⁻¹ sum_k (-z_S/z_B)^k; exists iff the body is nonzero.

    The sum terminates because the soul is nilpotent of index <= N+1.
    """
    body = z.body
    if abs(body) <= z.context.tol_body:
        raise BodyZero(f"body modulus {abs(body):.3e} is below tol_body")
    return _soul_series(z.soul * (-1.0 / body), itertools.repeat(1.0)) * (1.0 / body)


def kth_root(z: Supernumber, k: int) -> Supernumber:
    """Principal k-th root: w with w**k = z, via the binomial series in z_S/z_B.

    Only the principal branch is offered; a body on the negative real axis
    raises BranchCut, and a root order below 2 DomainViolation.  A
    superpositive input yields a superreal root.
    """
    if not isinstance(k, int) or k < 2:
        raise DomainViolation(f"root order must be an integer >= 2, got {k}")
    body = z.body
    if abs(body) <= z.context.tol_body:
        raise BodyZero(f"body modulus {abs(body):.3e} is below tol_body")
    if body.imag == 0.0 and body.real < 0.0:
        raise BranchCut("body lies on the negative real axis")
    exponent = 1.0 / k
    # binomial coefficients: c_{n+1} = c_n (exponent - n) / (n + 1)
    binomial = itertools.accumulate(itertools.count(), lambda c, n: c * ((exponent - n) / (n + 1)),
                                    initial=1.0)
    return _soul_series(z.soul * (1.0 / body), binomial) * body ** exponent


def analytic_apply(f: Callable[[complex, int], complex], z: Supernumber) -> Supernumber:
    """Analytic extension f(z) = sum_n f^(n)(z_B)/n! z_S^n (finite in Λ_N).

    ``f(z0, n)`` must return the n-th derivative of the underlying complex
    function at z0, and should raise DomainViolation for points outside the
    analyticity domain.  The soul z_S is summed as F(e) + F'(e)·o over its
    even part e and odd part o (see ``_soul_series``).  A zero soul draws
    ``f(z0, 0)`` only; a soul whose terms are all even draws ``f(z0, n)``
    for each nonzero z_S^n; any other soul draws orders 0..m for the first
    zero power e^m, at most one more than the nonzero powers of z_S.
    """
    body = z.body
    coeffs = itertools.chain([f(body, 0)], (f(body, n) / math.factorial(n) for n in itertools.count(1)))
    return _soul_series(z.soul, coeffs)
