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

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .errors import BodyZero, BranchCut, ContextMismatch

# A multi-index is an int bit set over generator slots 1..64.
MultiIndex = int

_REAL_TOL = 1e-12  # coefficientwise dagger-symmetry tolerance for classify()


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


def dagger_sign(index: MultiIndex) -> int:
    """Sign (-1)**(t(t-1)/2) applied to a grade-t coefficient by conjugation."""
    # t(t-1)/2 is odd exactly when t = 2, 3 (mod 4), i.e. when bit 1 of t is set.
    return -1 if grade(index) & 2 else 1


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
        if not 1 <= self.generators <= 64:
            raise ValueError(f"generator count must be in 1..64, got {self.generators}")
        if not (self.tol_body > 0 and self.tol_eq > 0):  # NaN fails too
            raise ValueError("tolerances must be positive")
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

    def coefficient(self, generators: Iterable[int]) -> complex:
        return self._terms.get(index_from_generators(generators), 0j)

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
            return Supernumber(self.context, {k: v * c for k, v in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        # complex scalars are central, so left and right scaling agree
        if isinstance(other, (int, float, complex)):
            c = complex(other)
            return Supernumber(self.context, {k: c * v for k, v in self._terms.items()})
        return NotImplemented

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

    @property
    def dag(self) -> "Supernumber":
        return dagger(self)

    def norm1(self) -> float:
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
        for key in sorted(self._terms, key=lambda k: (grade(k), index_to_generators(k))):
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
    return Supernumber(context, acc)


_FAST_PATH_MIN_PAIRS = 192
_FAST_PATH_MAX_GENERATORS = 16  # widest context whose output slots are dense buckets


def mul(z: Supernumber, w: Supernumber) -> Supernumber:
    """Noncommutative product ``zw = sum z_a w_b i_a i_b``.

    Only disjoint pairs (a & b == 0) contribute; each product is negated when
    merge_swap_count(a, b) is odd.  Contributions to each output index
    accumulate in ascending (a, b) order, matching the dense oracle's double
    loop exactly.  Products of at least ``_FAST_PATH_MIN_PAIRS`` term pairs
    take the numpy kernel at every generator count; it reproduces the scalar
    loop bit for bit.
    """
    context = _require_same_context(z, w)
    wterms = w._terms
    if len(z._terms) * len(wterms) >= _FAST_PATH_MIN_PAIRS:
        return Supernumber._canonical(context, _mul_vectorized(context, z._terms, wterms))
    acc: dict[int, complex] = {}
    for a, za in z._terms.items():
        for b, wb in wterms.items():
            if a & b:
                continue
            t = za * wb
            if merge_swap_count(a, b) & 1:
                t = -t
            g = a | b
            acc[g] = acc.get(g, 0j) + t
    return Supernumber(context, acc)


def _mul_vectorized(context: AlgebraContext, zterms, wterms) -> dict[int, complex]:
    """Canonical term map of the product, computed on the disjoint key pairs only.

    One kernel for every generator count from 1 to 64: keys are held as uint64,
    so generator 64 fits.  Signs come from an XOR fold of the merge parity, and
    each pair's product lands in an output slot: a dense bucket per key below
    2**N for N <= _FAST_PATH_MAX_GENERATORS, one slot per distinct output key
    beyond.  Either way the slots are summed in ascending (a, b) order, as the
    scalar loop in ``mul`` sums them, so the result is bit-identical to it.
    """
    import numpy as np

    ka = np.fromiter(zterms.keys(), dtype=np.uint64, count=len(zterms))
    kb = np.fromiter(wterms.keys(), dtype=np.uint64, count=len(wterms))
    va = np.fromiter(zterms.values(), dtype=complex, count=len(zterms))
    vb = np.fromiter(wterms.values(), dtype=complex, count=len(wterms))
    # The disjoint-pair mask is built a band of rows at a time, each band's
    # uint64 intermediate no larger than one dense bucket array.  Bands and the
    # row-major flatnonzero keep the pairs in the ascending (a, b) order of the
    # scalar loop.
    band = max(1, (1 << _FAST_PATH_MAX_GENERATORS) // len(kb))
    flat = np.concatenate([
        np.flatnonzero(np.bitwise_and.outer(ka[lo:lo + band], kb) == 0) + lo * len(kb)
        for lo in range(0, len(ka), band)
    ])
    ia, ib = np.divmod(flat, len(kb))
    del flat
    # Bit k of prefix_xor(b) << 1 is the parity of b's bits below k, so the
    # parity of merge_swap_count(a, b) is that of popcount(a & (prefix_xor(b) << 1)).
    # That parity is the low bit left by XOR-folding the word with the prefix
    # loop's shifts in reverse.
    prefix = kb.copy()
    shift = 1
    while shift < context.generators:
        prefix ^= prefix << shift
        shift <<= 1
    gamma = ka[ia]  # a for now; a | b below
    fold = (prefix << 1)[ib]
    fold &= gamma
    while shift > 1:
        shift >>= 1
        fold ^= fold >> shift
    fold &= 1
    negate = fold.astype(bool)
    del fold
    gamma |= kb[ib]
    # split components so each multiply/add rounds exactly like the scalar loop
    ar, ai = va.real[ia], va.imag[ia]
    br, bi = vb.real[ib], vb.imag[ib]
    del ia, ib
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    del ar, ai, br, bi
    np.negative(re, out=re, where=negate)
    np.negative(im, out=im, where=negate)
    del negate
    # bincount accumulates sequentially per bucket, identically to the loop;
    # this order is load-bearing for bit-exactness with the dense oracle, so
    # no pairwise-summing reduction (np.add.reduceat, np.sum) may replace it.
    # Up to _FAST_PATH_MAX_GENERATORS the slots are every key below 2**N;
    # beyond, they are the distinct output keys, sorted by np.unique.
    dense = context.generators <= _FAST_PATH_MAX_GENERATORS
    if dense:
        slot, size = gamma.view(np.int64), 1 << context.generators
    else:
        keys, slot = np.unique(gamma, return_inverse=True)
        size = len(keys)
    del gamma
    buf_re = np.bincount(slot, weights=re, minlength=size)
    buf_im = np.bincount(slot, weights=im, minlength=size)
    hit = np.flatnonzero((buf_re != 0.0) | (buf_im != 0.0))
    # fill the parts separately: re + 1j*im would turn a -0.0 real part into +0.0
    values = np.empty(len(hit), dtype=complex)
    values.real = buf_re[hit]
    values.imag = buf_im[hit]
    return dict(zip((hit if dense else keys[hit]).tolist(), values.tolist()))


def dagger(z: Supernumber) -> Supernumber:
    """The conjugation z† = conj(z0) + sum (-1)^{t(t-1)/2} conj(z_a) i_a.

    Involutive antiautomorphism: (z†)† = z and (zw)† = w† z†.
    """
    out = {k: (v.conjugate() if dagger_sign(k) > 0 else -v.conjugate()) for k, v in z._terms.items()}
    return Supernumber._canonical(z.context, out)


def norm1(z: Supernumber) -> float:
    """Sum of coefficient moduli; submultiplicative."""
    return z.norm1()


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


def invert(z: Supernumber) -> Supernumber:
    """Inverse z⁻¹ = z_B⁻¹ sum_k (-z_S/z_B)^k; exists iff the body is nonzero.

    The sum terminates because the soul is nilpotent of index <= N+1.
    """
    context = z.context
    body = z.body
    if abs(body) <= context.tol_body:
        raise BodyZero(f"body modulus {abs(body):.3e} is below tol_body")
    s = z.soul * (-1.0 / body)
    acc = context.one()
    power = context.one()
    for _ in range(context.generators):
        power = mul(power, s)
        if power.is_zero():
            break
        acc = acc + power
    return acc * (1.0 / body)


def kth_root(z: Supernumber, k: int) -> Supernumber:
    """Principal k-th root: w with w**k = z, via the binomial series in z_S/z_B.

    Only the principal branch is offered; a body on the negative real axis
    raises BranchCut.  A superpositive input yields a superreal root.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"root order must be an integer >= 2, got {k}")
    context = z.context
    body = z.body
    if abs(body) <= context.tol_body:
        raise BodyZero(f"body modulus {abs(body):.3e} is below tol_body")
    if body.imag == 0.0 and body.real < 0.0:
        raise BranchCut("body lies on the negative real axis")
    root_body = body ** (1.0 / k)
    u = z.soul * (1.0 / body)
    acc = context.one()
    power = context.one()
    coeff = 1.0
    exponent = 1.0 / k
    for n in range(context.generators):
        coeff *= (exponent - n) / (n + 1)
        power = mul(power, u)
        if power.is_zero():
            break
        acc = acc + power * coeff
    return acc * root_body


def analytic_apply(f: Callable[[complex, int], complex], z: Supernumber) -> Supernumber:
    """Analytic extension f(z) = sum_n f^(n)(z_B)/n! z_S^n (finite in Λ_N).

    ``f(z0, n)`` must return the n-th derivative of the underlying complex
    function at z0, and should raise DomainViolation for points outside the
    analyticity domain.
    """
    context = z.context
    body = z.body
    acc = context.scalar(f(body, 0))
    power = context.one()
    for n in range(1, context.generators + 1):
        power = mul(power, z.soul)
        if power.is_zero():
            break
        acc = acc + power * (f(body, n) / math.factorial(n))
    return acc

