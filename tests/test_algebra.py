"""Supernumber arithmetic: signs, products, dagger, norms, inverses, roots."""
import cmath
import itertools
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from grasschur import (
    AlgebraContext,
    Supernumber,
    analytic_apply,
    basis_mul,
    classify,
    dagger,
    index_from_generators,
    invert,
    kth_root,
    linear_combine,
    merge_swap_count,
    mul,
)
import grasschur.algebra as ga
from grasschur.errors import BodyZero, BranchCut, ContextMismatch
from grasschur.oracle import bubble_sort_sign
from grasschur.sampling import random_soul, random_supernumber


def idx(*gens):
    return index_from_generators(gens)


def dist(a, b):
    return (a - b).norm1()


class TestContext:
    @pytest.mark.parametrize("field,value", [
        ("generators", 8.0), ("generators", True), ("generators", "8"), ("generators", None),
        ("max_series_degree", 2.5), ("max_series_degree", True), ("max_series_degree", False),
        ("max_series_degree", 32.0),
    ])
    def test_non_int_counts_rejected(self, field, value):
        fields = {"generators": 8, field: value}
        with pytest.raises(ValueError, match=field):
            AlgebraContext(**fields)

    @pytest.mark.parametrize("field", ["tol_body", "tol_eq"])
    @pytest.mark.parametrize("value", [True, False, "1e-3", None, 1e-3j, [1e-3]])
    def test_non_real_tolerances_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AlgebraContext(8, **{field: value})

    @pytest.mark.parametrize("value", [1, 1e-3, np.float64(1e-3), np.float32(1e-3), Fraction(1, 1000)])
    def test_real_tolerances_accepted(self, value):
        c = AlgebraContext(8, tol_body=value, tol_eq=value)
        assert c.tol_body == value and c.tol_eq == value

    @pytest.mark.parametrize("fields", [{"generators": 0}, {"generators": 65}, {"max_series_degree": -1}])
    def test_out_of_range_counts_rejected(self, fields):
        with pytest.raises(ValueError):
            AlgebraContext(**{"generators": 8, **fields})

    @pytest.mark.parametrize("generators,degree", [(1, 0), (64, 32), (8, 200)])
    def test_int_counts_accepted(self, generators, degree):
        c = AlgebraContext(generators=generators, max_series_degree=degree)
        top = c.generator(generators)
        assert mul(top, top).is_zero() and mul(top, c.generator(1)) == -mul(c.generator(1), top)


class TestBasisMul:
    def test_adjacent_merge(self):
        assert basis_mul(idx(1), idx(2)) == (1, idx(1, 2))

    def test_one_transposition(self):
        assert basis_mul(idx(2), idx(1)) == (-1, idx(1, 2))

    def test_square_vanishes(self):
        assert basis_mul(idx(1), idx(1)) is None

    def test_interleaved_sign_matches_bubble_sort(self):
        # (1,3)*(2): concatenation (1,3,2) needs one swap
        sign, gamma = basis_mul(idx(1, 3), idx(2))
        assert gamma == idx(1, 2, 3)
        assert sign == bubble_sort_sign((1, 3, 2)) == -1

    def test_exhaustive_sign_oracle_small(self):
        gens = list(range(1, 7))
        subsets = [frozenset(c) for r in range(4) for c in combinations(gens, r)]
        for a in subsets:
            for b in subsets:
                ia, ib = idx(*sorted(a)), idx(*sorted(b))
                got = basis_mul(ia, ib)
                oracle = bubble_sort_sign(tuple(sorted(a)) + tuple(sorted(b)))
                if a & b:
                    assert got is None and oracle == 0
                else:
                    assert got == (oracle, idx(*sorted(a | b)))

    def test_graded_commutation_exhaustive(self):
        # disjoint monomials commute up to (-1)^{|a||b|}
        gens = list(range(1, 7))
        subsets = [tuple(c) for r in range(4) for c in combinations(gens, r)]
        for a in subsets:
            for b in subsets:
                if set(a) & set(b):
                    assert basis_mul(idx(*a), idx(*b)) is None
                    continue
                s1, g1 = basis_mul(idx(*a), idx(*b))
                s2, g2 = basis_mul(idx(*b), idx(*a))
                assert g1 == g2
                assert s1 == s2 * (-1) ** (len(a) * len(b))


class TestLinearCombine:
    def test_identity_and_cancellation(self, ctx, rng):
        z = random_supernumber(ctx, rng)
        w = random_supernumber(ctx, rng)
        assert linear_combine([(1.0, z), (0.0, w)]) == z
        assert linear_combine([(1.0, z), (-1.0, z)]).is_zero()

    def test_halves_merge(self, ctx):
        i1 = ctx.generator(1)
        assert linear_combine([(0.5, i1), (0.5, i1)]) == i1

    def test_context_mismatch(self, ctx, ctx4):
        with pytest.raises(ContextMismatch):
            linear_combine([(1.0, ctx.one()), (1.0, ctx4.one())])


class TestMul:
    def test_unit_pair(self, ctx):
        one, i1 = ctx.one(), ctx.generator(1)
        assert mul(one + i1, one - i1) == one

    def test_odd_square_is_zero(self, ctx, rng):
        v = ctx.generator(1) + ctx.generator(2) + ctx.generator(3)
        assert mul(v, v).is_zero()
        w = random_soul(ctx, rng, parity="odd", terms=6, max_grade=5)
        assert mul(w, w).norm1() <= 1e-12 * w.norm1() ** 2

    def test_anticommutation_all_pairs(self):
        ctx = AlgebraContext(generators=10)
        for n in range(1, 11):
            for m in range(1, 11):
                anti = mul(ctx.generator(n), ctx.generator(m)) + mul(ctx.generator(m), ctx.generator(n))
                assert anti.is_zero()

    def test_associativity_random(self, ctx, rng):
        for _ in range(200):
            x = random_supernumber(ctx, rng)
            y = random_supernumber(ctx, rng)
            z = random_supernumber(ctx, rng)
            left = mul(mul(x, y), z)
            right = mul(x, mul(y, z))
            bound = 1e-12 * x.norm1() * y.norm1() * z.norm1()
            assert dist(left, right) <= bound

    def test_even_elements_are_central(self):
        ctx = AlgebraContext(generators=6)
        rng = np.random.default_rng(7)
        for _ in range(50):
            u = random_supernumber(ctx, rng, parity="even", max_grade=6)
            z = random_supernumber(ctx, rng, max_grade=6)
            assert dist(mul(u, z), mul(z, u)) <= 1e-12 * max(1.0, u.norm1() * z.norm1())


def scalar_product(zterms, wterms):
    """Canonical term map of zw by the scalar double loop, the kernel's reference."""
    acc = {}
    for a, za in zterms.items():
        for b, wb in wterms.items():
            if a & b:
                continue
            t = za * wb
            if merge_swap_count(a, b) & 1:
                t = -t
            acc[a | b] = acc.get(a | b, 0j) + t
    return {k: v for k, v in sorted(acc.items()) if v != 0}


def dense_terms(rng, gens, count):
    """``count`` distinct keys below 2**gens with random coefficients, some parts -0.0."""
    keys = sorted(rng.choice(1 << gens, size=count, replace=False).tolist())
    parts = rng.normal(size=(count, 2))
    parts[rng.random(parts.shape) < 0.1] = -0.0
    return {k: complex(re, im) for k, (re, im) in zip(keys, parts) if complex(re, im) != 0}


def wide_terms(rng, gens, count, max_grade=4):
    """``count`` distinct keys of grade <= max_grade, every fourth one holding the
    last generator (so bit 63 at N=64); random coefficients, some parts -0.0."""
    keys = set()
    while len(keys) < count:
        picked = rng.choice(gens - 1, size=rng.integers(0, max_grade), replace=False)
        key = sum(1 << int(g) for g in picked)
        keys.add(key | (1 << (gens - 1)) if len(keys) % 4 == 0 else key)
    parts = rng.normal(size=(count, 2))
    parts[rng.random(parts.shape) < 0.1] = -0.0
    return {k: complex(re, im) for k, (re, im) in zip(sorted(keys), parts) if complex(re, im) != 0}


def assert_bitwise_equal(got, want):
    """Exact equality of two term maps: the same keys in the same order, and the
    same ``repr`` for every coefficient, so -0.0 differs from 0.0 (unlike ==).

    Reports the first difference instead of leaving pytest to diff the maps,
    which takes minutes on large products.
    """
    if list(got) != list(want):
        missing = sorted(set(want) - set(got))[:3]
        extra = sorted(set(got) - set(want))[:3]
        pytest.fail(f"key lists differ ({len(got)} against {len(want)} keys): "
                    f"missing {missing}, extra {extra}")
    for key, value in got.items():
        if repr(value) != repr(want[key]):
            pytest.fail(f"key {key}: {value!r} != {want[key]!r}")


class TestMulFastPath:
    @pytest.mark.parametrize("gens", [8, 12, 16])
    def test_vectorized_path_matches_scalar_loop(self, gens, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(150):
            z = random_supernumber(c, rng, terms=16, max_grade=gens)
            w = random_supernumber(c, rng, terms=16, max_grade=gens)
            fast = _mul_vectorized(c, z.terms, w.terms)
            assert fast == scalar_product(z.terms, w.terms)

    def test_sign_parity_exhaustive_n8(self):
        # one left key against every right key: each disjoint b lands on its own a | b
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=8)
        every = {b: 1 + 0j for b in range(256)}
        for a in range(256):
            expected = {a | b: (-1 if merge_swap_count(a, b) & 1 else 1) + 0j
                        for b in range(256) if not a & b}
            assert _mul_vectorized(c, {a: 1 + 0j}, every) == dict(sorted(expected.items()))

    def test_sign_parity_random_n16(self, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=16)
        for a in rng.integers(0, 1 << 16, size=200).tolist():
            right = sorted({b & ~a for b in rng.integers(0, 1 << 16, size=64).tolist()})
            expected = {a | b: (-1 if merge_swap_count(a, b) & 1 else 1) + 0j for b in right}
            assert _mul_vectorized(c, {a: 1 + 0j}, {b: 1 + 0j for b in right}) == expected

    def test_filled_operands_bitwise_n8(self, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=8)
        for _ in range(3):
            z, w = dense_terms(rng, 8, 255), dense_terms(rng, 8, 255)
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    @pytest.mark.parametrize("left,right", [(1, 256), (256, 1)])
    def test_lopsided_operands_bitwise(self, left, right, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=8)
        for _ in range(20):
            z, w = dense_terms(rng, 8, left), dense_terms(rng, 8, right)
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    @pytest.mark.parametrize("gens", [10, 12, 16])
    def test_wide_contexts_bitwise(self, gens, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(10):
            z, w = dense_terms(rng, gens, 96), dense_terms(rng, gens, 96)
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    def test_kernel_results_are_canonical(self, ctx, rng):
        z = Supernumber(ctx, dense_terms(rng, 8, 255))
        w = Supernumber(ctx, dense_terms(rng, 8, 200))
        for out in (mul(z, w), -z, z.soul, dagger(z)):
            terms = out.terms
            assert list(terms) == sorted(terms)
            assert all(type(k) is int for k in terms)
            assert all(type(v) is complex and v != 0 for v in terms.values())
            public = Supernumber(ctx, terms)
            assert out == public and hash(out) == hash(public)
            assert_bitwise_equal(out.terms, public.terms)

    def test_exact_cancellation_leaves_no_zero_terms(self, rng):
        # an odd element squares to zero: the (a, b) and (b, a) products cancel exactly
        c = AlgebraContext(generators=16)
        theta = Supernumber(c, {1 << k: complex(*rng.normal(size=2)) for k in range(16)})
        assert mul(theta, theta).terms == {}

    @pytest.mark.parametrize("gens", [17, 32, 63, 64])
    def test_contexts_above_16_bitwise(self, gens, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(10):
            z, w = wide_terms(rng, gens, 96), wide_terms(rng, gens, 96)
            assert max(z) >> (gens - 1) and max(w) >> (gens - 1)
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    @pytest.mark.parametrize("gens,count,max_grade", [(12, 512, 12), (64, 320, 4)])
    def test_products_of_several_bands_bitwise(self, gens, count, max_grade, rng):
        # over 2**16 key pairs: the disjoint pairs are gathered a band of rows at a time
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(2):
            z, w = (wide_terms(rng, gens, count, max_grade) for _ in range(2))
            assert len(z) * len(w) > 1 << 16
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    @pytest.mark.parametrize("left,right", [(1, 256), (256, 1)])
    def test_lopsided_operands_bitwise_n64(self, left, right, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=64)
        for _ in range(20):
            z, w = wide_terms(rng, 64, left), wide_terms(rng, 64, right)
            assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    def test_signed_zero_parts_bitwise_n64(self, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=64)
        signs = [(-0.0, 1.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, -1.0)]
        z = {k: complex(*signs[i % 4]) for i, k in enumerate(sorted(wide_terms(rng, 64, 24)))}
        w = {k: complex(*signs[i % 3]) for i, k in enumerate(sorted(wide_terms(rng, 64, 24)))}
        assert_bitwise_equal(_mul_vectorized(c, z, w), scalar_product(z, w))

    def test_sign_parity_random_n64(self, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=64)
        for a in rng.integers(0, 1 << 64, size=200, dtype=np.uint64).tolist():
            right = sorted({b & ~a for b in
                            rng.integers(0, 1 << 64, size=64, dtype=np.uint64).tolist()})
            expected = {a | b: (-1 if merge_swap_count(a, b) & 1 else 1) + 0j for b in right}
            assert _mul_vectorized(c, {a: 1 + 0j}, {b: 1 + 0j for b in right}) == expected

    def test_exact_cancellation_leaves_no_zero_terms_n64(self, rng):
        c = AlgebraContext(generators=64)
        theta = Supernumber(c, {1 << k: complex(*rng.normal(size=2)) for k in range(64)})
        assert mul(theta, theta).terms == {}

    def test_kernel_results_are_canonical_n64(self, rng):
        c = AlgebraContext(generators=64)
        z, w = Supernumber(c, wide_terms(rng, 64, 48)), Supernumber(c, wide_terms(rng, 64, 40))
        out = mul(z, w)
        terms = out.terms
        assert len(z.terms) * len(w.terms) >= 192 and max(terms) >> 63
        assert list(terms) == sorted(terms)
        assert all(type(k) is int for k in terms)
        assert all(type(v) is complex and v != 0 for v in terms.values())
        public = Supernumber(c, terms)
        assert out == public and hash(out) == hash(public)
        assert_bitwise_equal(out.terms, public.terms)


class TestDagger:
    def test_single_generator_fixed(self, ctx):
        i1 = ctx.generator(1)
        assert dagger(i1) == i1

    def test_grade_two_flips(self, ctx):
        z = ctx.basis((1, 2))
        assert dagger(z) == -z

    def test_involution_exact(self, ctx, rng):
        for _ in range(100):
            z = random_supernumber(ctx, rng)
            assert dagger(dagger(z)) == z

    def test_antiautomorphism(self, ctx, rng):
        for _ in range(200):
            z = random_supernumber(ctx, rng)
            w = random_supernumber(ctx, rng)
            lhs = dagger(mul(z, w))
            rhs = mul(dagger(w), dagger(z))
            assert dist(lhs, rhs) <= 1e-12 * z.norm1() * w.norm1()


class TestNorm:
    def test_unit_plus_generator(self, ctx):
        assert (ctx.one() + ctx.generator(1)).norm1() == 2.0

    def test_superdisk_example_norm(self, ctx):
        # a = (1 + lambda*i1)/2 has norm (1+|lambda|)/2, unbounded on the superdisk
        for lam in (0.5, 10.0, 1e3):
            a = (ctx.one() + ctx.generator(1) * lam) * 0.5
            assert a.norm1() == pytest.approx((1 + lam) / 2)

    def test_submultiplicative(self, ctx, rng):
        for _ in range(500):
            z = random_supernumber(ctx, rng)
            w = random_supernumber(ctx, rng)
            assert mul(z, w).norm1() <= z.norm1() * w.norm1() * (1 + 1e-12)


def with_residues(ctx, rng, z, count, size):
    """z plus ``count`` terms on fresh monomials of modulus about ``size``·‖z‖₁."""
    extra = {k: v * size * z.norm1() for k, v in random_soul(ctx, rng, terms=count).terms.items() if k not in z.terms}
    return z + Supernumber(ctx, extra)


class TestSettled:
    """algebra._settled drops the terms of modulus at most 2⁻⁴⁶‖z‖₁ / len(z)."""

    def test_dropped_mass_within_bound(self):
        ctx = AlgebraContext(generators=64)
        rng = np.random.default_rng(46)
        for size in (1e-18, 1e-16, 2.0 ** -46 / 64, 1e-13):
            for _ in range(20):
                z = with_residues(ctx, rng, random_supernumber(ctx, rng, terms=8), 40, size)
                s = ga._settled(z)
                floor = 2.0 ** -46 * z.norm1() / len(z.terms)
                assert s.terms == {k: v for k, v in z.terms.items() if abs(v) > floor}  # kept terms untouched
                assert (z - s).norm1() <= 2.0 ** -46 * z.norm1()

    def test_drops_a_residue_and_keeps_a_small_term(self, ctx):
        z = ctx.one() + ctx.generator(1) * 1e-14 + ctx.generator(2) * 1e-16  # floor ≈ 4.7e-15
        assert ga._settled(z) == ctx.one() + ctx.generator(1) * 1e-14

    def test_superreal_stays_superreal(self):
        ctx = AlgebraContext(generators=64)
        rng = np.random.default_rng(47)
        for _ in range(20):
            w = with_residues(ctx, rng, random_supernumber(ctx, rng, terms=8), 40, 1e-17)
            z = w + dagger(w)
            s = ga._settled(z)
            assert len(s.terms) < len(z.terms)
            assert dagger(s) == s and classify(s).is_real

    def test_zero_and_single_term_unchanged(self, ctx):
        for z in (ctx.zero(), ctx.one(), ctx.generator(3) * 1e-300, ctx.basis((1, 2)) * (2 - 1j)):
            assert ga._settled(z) is z


class TestClassify:
    def test_real_without_positivity(self, ctx):
        z = ctx.generator(1) + ctx.generator(2)
        c = classify(z)
        assert c.is_real and not c.is_superpositive and c.body == 0

    def test_constant_positive(self, ctx):
        c = classify(ctx.scalar(4.0))
        assert c.is_real and c.is_superpositive and c.is_supernonnegative

    def test_ww_dagger_superpositive(self, ctx, rng):
        for _ in range(50):
            w = random_supernumber(ctx, rng, body=1.5 + 0.5j)
            c = classify(mul(w, dagger(w)))
            assert c.is_real and c.is_superpositive

    def test_parity_flags(self, ctx):
        even = ctx.scalar(2.0) + ctx.basis((1, 2))
        odd = ctx.generator(3) + ctx.basis((1, 2, 4))
        assert classify(even).is_even and not classify(even).is_odd
        assert classify(odd).is_odd and not classify(odd).is_even

    def test_body_criterion_for_superreal(self, ctx, rng):
        # body sign decides positivity for superreal elements; the square-root
        # witness exists and squares back
        for _ in range(25):
            s = random_soul(ctx, rng, terms=3)
            z = linear_combine([(1.0, ctx.scalar(2.0)), (1.0, s), (1.0, dagger(s))])
            c = classify(z)
            assert c.is_real and c.is_superpositive
            w = kth_root(z, 2)
            assert dist(mul(w, dagger(w)), z) <= 1e-9 * z.norm1()


class TestInvert:
    def test_one_plus_generator(self, ctx):
        z = ctx.one() + ctx.generator(1)
        assert invert(z) == ctx.one() - ctx.generator(1)

    def test_scalar(self, ctx):
        assert invert(ctx.scalar(2.0)) == ctx.scalar(0.5)

    def test_even_soul(self, ctx):
        z = ctx.one() + ctx.basis((1, 2)) + ctx.basis((3, 4))
        assert dist(mul(z, invert(z)), ctx.one()) <= 1e-12

    def test_random_residual_and_involution(self, ctx, rng):
        for _ in range(100):
            z = random_supernumber(ctx, rng, body=complex(rng.normal(), rng.normal()) + 0.5)
            zi = invert(z)
            assert dist(mul(z, zi), ctx.one()) <= 1e-9 * max(1.0, z.norm1())
            assert dist(mul(zi, z), ctx.one()) <= 1e-9 * max(1.0, z.norm1())
            assert dist(invert(zi), z) <= 1e-9 * max(1.0, z.norm1())

    def test_body_zero_rejected(self, ctx):
        with pytest.raises(BodyZero):
            invert(ctx.generator(1))
        with pytest.raises(BodyZero):
            invert(ctx.zero())


class TestKthRoot:
    def test_scalar_sqrt(self, ctx):
        assert kth_root(ctx.scalar(4.0), 2) == ctx.scalar(2.0)

    def test_nilpotent_sqrt(self, ctx):
        z = ctx.scalar(4.0) + ctx.basis((1, 2)) * 4.0
        w = kth_root(z, 2)
        assert dist(w, ctx.scalar(2.0) + ctx.basis((1, 2))) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_power_roundtrip(self, ctx, rng, k):
        for _ in range(50):
            z = random_supernumber(ctx, rng, body=complex(1.0 + rng.random(), rng.normal()))
            w = kth_root(z, k)
            assert dist(w**k, z) <= 1e-9 * max(1.0, z.norm1())

    def test_dagger_commutes_with_sqrt_on_positives(self, ctx, rng):
        for _ in range(50):
            w = random_supernumber(ctx, rng, body=1.0 + rng.random())
            z = mul(w, dagger(w))
            r = kth_root(z, 2)
            assert dist(dagger(r), kth_root(dagger(z), 2)) <= 1e-10 * max(1.0, z.norm1())
            assert dist(dagger(r), r) <= 1e-10 * max(1.0, z.norm1())

    def test_branch_cut(self, ctx):
        with pytest.raises(BranchCut):
            kth_root(ctx.scalar(-1.0), 2)
        with pytest.raises(BodyZero):
            kth_root(ctx.generator(1), 2)


class TestAnalyticApply:
    def test_exp_of_nilpotent(self, ctx):
        z = ctx.basis((1, 2))
        f = lambda z0, n: cmath.exp(z0)
        assert dist(analytic_apply(f, z), ctx.one() + z) <= 1e-12

    def test_identity_function(self, ctx, rng):
        f = lambda z0, n: z0 if n == 0 else (1.0 if n == 1 else 0.0)
        z = random_supernumber(ctx, rng)
        assert dist(analytic_apply(f, z), z) <= 1e-12 * max(1.0, z.norm1())

    def test_square_function_matches_mul(self, ctx, rng):
        def f(z0, n):
            return (z0 * z0, 2 * z0, 2.0)[n] if n <= 2 else 0.0

        for _ in range(25):
            z = random_supernumber(ctx, rng, parity="even")
            # analytic calculus needs a commuting argument; even souls commute
            assert dist(analytic_apply(f, z), mul(z, z)) <= 1e-10 * max(1.0, z.norm1() ** 2)

    def test_exp_sums_soul_series(self, ctx):
        # exp(1 + i1i2) = e * (1 + i1i2)
        z = ctx.one() + ctx.basis((1, 2))
        f = lambda z0, n: cmath.exp(z0)
        expected = (ctx.one() + ctx.basis((1, 2))) * math.e
        assert dist(analytic_apply(f, z), expected) <= 1e-12 * math.e


# -- the soul series summed in one pass, against the per-power linear_combine --------------


def ref_soul_series(u, coeffs):
    """sum_n c_n u^n with the accumulator rebuilt by linear_combine after every power."""
    context = u.context
    acc = context.scalar(next(coeffs))
    power = context.one()
    for _ in range(context.generators):
        power = mul(power, u)
        if power.is_zero():
            break
        acc = linear_combine([(1.0, acc), (next(coeffs), power)])
    return acc


def ref_parity_series(u, coeffs):
    """sum_n c_n u^n = F(e) + F'(e) o for u = e + o (even e central, o·o = 0), with F(e) = sum_n c_n e^n
    and F'(e) = sum_n n c_n e^(n-1) rebuilt by linear_combine after every power of e."""
    context = u.context
    e, o = parity_parts(u)
    acc, deriv, previous = context.scalar(next(coeffs)), context.zero(), context.one()
    for n in range(1, context.generators + 1):
        power = mul(previous, e)
        if power.is_zero():
            break
        c = complex(next(coeffs))
        acc = linear_combine([(1.0, acc), (c, power)])
        deriv = linear_combine([(1.0, deriv), (c * n, previous)])
        previous = power
    deriv = linear_combine([(1.0, deriv), (complex(next(coeffs)) * n, previous)])
    return linear_combine([(1.0, acc), (1.0, mul(deriv, o))])


def parity_parts(u):
    """The even and the odd part of u."""
    return [Supernumber(u.context, {k: v for k, v in u.terms.items() if k.bit_count() % 2 == p}) for p in (0, 1)]


def first_zero_power(e):
    return next(m for m in itertools.count(1) if (e ** m).is_zero())


def mixed_parity(u):
    return {k.bit_count() % 2 for k in u.terms} == {0, 1}


def ref_series(u, coeffs):
    """The reference each soul's arithmetic follows: the power-by-power sum for an even soul and for
    a purely odd soul whose u·u cancels exactly (every 1-term soul among them); the parity split for
    any other soul, filled or sparse.

    The one single-parity exception: a purely odd soul whose u·u leaves a rounding residue is pinned
    to the split.  Its split result is c_0 + c_1 o exactly, while the power-by-power sum carries that
    residue on; the two still agree within 1e-14, which the test checks as well."""
    has_odd_part = any(k.bit_count() % 2 for k in u.terms)
    odd_residue = has_odd_part and (mixed_parity(u) or not mul(u, u).is_zero())
    return (ref_parity_series if odd_residue else ref_soul_series)(u, coeffs)


def hex_terms(z):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in z.terms.items()]


def soul_series_inputs(kind, rng):
    """Numbers whose souls the series runs on, some with real coefficients (so products carry
    -0.0 parts), bodies off the negative real axis:

    - ``filled8``: N = 8, every monomial; ``sparse64``: N = 64, 2-12 terms;
    - ``cut8``: N = 8 souls of 31, 32 and 33 random monomials, an eighth of 2**N;
    - ``cut6``: N = 6 souls of 13, 14 and 15 monomials, around the size where u·u first takes
      mul's numpy kernel;
    - ``parity8``: N = 8 souls of every even or every odd monomial;
    - ``edge``: filled N = 9 and N = 10 souls, the largest the tests sum.
    """
    out = []
    for i in range(4 if kind == "edge" else 12):
        if kind == "filled8":
            ctx = AlgebraContext(generators=8)
            terms = {k: 0.05 * complex(*rng.normal(size=2)) for k in range(1, 256)}
        elif kind != "sparse64":
            n = {"cut6": 6, "edge": 9 + i % 2}.get(kind, 8)
            ctx = AlgebraContext(generators=n)
            keys = range(1, 1 << n)
            if kind in ("cut8", "cut6"):
                size = (31 if kind == "cut8" else 13) + i % 3
                keys = rng.choice(np.arange(1, 1 << n), size=size, replace=False).tolist()
            elif kind == "parity8":
                keys = [k for k in keys if k.bit_count() % 2 == i % 2]
            terms = {k: 0.05 * complex(*rng.normal(size=2)) for k in keys}
        else:
            ctx = AlgebraContext(generators=64)
            terms = random_soul(ctx, rng, terms=1 + i % 11).terms
        if i % 3 == 0:
            terms = {k: complex(v.real, 0.0) for k, v in terms.items()}
        terms[0] = complex(1.0 + rng.random(), 0.0 if i % 3 == 0 else rng.normal())
        out.append(Supernumber(ctx, terms))
    return out


def geometric(z0, n):
    return math.factorial(n) / (1.0 - z0) ** (n + 1)


def exp_negative_zero(z0, n):
    """exp, with a -0.0 imaginary part on the constant term."""
    value = cmath.exp(z0)
    return complex(value.real, -0.0) if n == 0 else value


def cubic(z0, n):
    """f(z) = z**3 - 2, a polynomial: its Taylor coefficients vanish from n = 4 on, and at
    z0 = 0 also for n = 1 and 2."""
    return (z0 ** 3 - 2.0, 3.0 * z0 ** 2, 3.0 * z0, 1.0)[n] if n <= 3 else 0.0


@pytest.mark.parametrize("kind", ["filled8", "sparse64", "cut8", "cut6", "parity8", "edge"])
def test_soul_series_bit_identical_to_linear_combine(kind, rng, monkeypatch):
    calls = [invert, *(lambda z, k=k: kth_root(z, k) for k in (2, 3, 4)),
             lambda z: analytic_apply(geometric, z * 0.3), lambda z: analytic_apply(exp_negative_zero, z),
             lambda z: analytic_apply(cubic, z), lambda z: analytic_apply(cubic, z.soul)]
    for z in soul_series_inputs(kind, rng):
        got = [call(z) for call in calls]
        with monkeypatch.context() as patch:
            patch.setattr(ga, "_soul_series", ref_series)
            want = [call(z) for call in calls]
            patch.setattr(ga, "_soul_series", ref_soul_series)
            loop = [call(z) for call in calls]
        assert [hex_terms(w) for w in got] == [hex_terms(w) for w in want]
        for g, w in zip(got, loop):
            assert dist(g, w) <= 1e-14 * max(1.0, w.norm1())


def mixed_soul_64(rng, terms):
    """An N = 64 soul of both parities."""
    ctx = AlgebraContext(generators=64)
    while True:
        u = random_soul(ctx, rng, terms=terms)
        if mixed_parity(u):
            return u


def test_soul_series_of_an_odd_soul_is_its_linear_part(rng):
    """o·o = 0, so sum_n c_n o^n = c_0 + c_1 o, with only c_0 and c_1 drawn."""
    ctx = AlgebraContext(generators=64)
    # i1·i2i3i4 and i2·i1i3i4 land on one key, where the power-by-power sum of o·o can leave a residue
    keys = [idx(*g) for g in ((1,), (2,), (2, 3, 4), (1, 3, 4), (64,), (7, 9, 64), (10, 11, 12, 13, 14))]
    o = Supernumber(ctx, {k: complex(*rng.normal(size=2)) for k in keys})
    drawn = []
    coeffs = (drawn.append(n) or complex(n + 2, -n) for n in itertools.count())
    got = ga._soul_series(o, coeffs)
    assert drawn == [0, 1]
    assert hex_terms(got) == hex_terms(linear_combine([(2.0, ctx.one()), (3.0 - 1.0j, o)]))


@pytest.mark.parametrize("terms", [2, 4, 6, 12, 40, *(pytest.param(shape, id="{}-{}".format(*shape))
                                                      for shape in ((6, 63), (8, 255), (9, 511), (8, 32)))])
def test_soul_series_multiplies_powers_of_the_even_part_only(terms, rng, monkeypatch):
    """One mul per power of e beyond e itself (the last one zero), one for F'(e)·o, no power of u:
    for N = 64 souls of ``terms`` terms, and for (N, count) souls of ``count`` random monomials,
    the filled N = 6, 8 and 9 souls and an N = 8 soul holding an eighth of 2**N."""
    if isinstance(terms, int):
        u = mixed_soul_64(rng, terms)
    else:
        generators, count = terms
        keys = rng.choice(np.arange(1, 1 << generators), size=count, replace=False).tolist()
        u = Supernumber(AlgebraContext(generators=generators), {k: 0.05 * complex(*rng.normal(size=2)) for k in keys})
        assert mixed_parity(u)
    e, o = parity_parts(u)
    powers = first_zero_power(e)  # e², ..., e^m
    rights = []

    def counted(z, w):
        rights.append(w)
        return mul(z, w)

    monkeypatch.setattr(ga, "mul", counted)
    ga._soul_series(u, itertools.repeat(1.0))
    assert rights.count(e) == powers - 1 and rights.count(o) == 1 and len(rights) == powers
    assert u not in rights


@pytest.mark.parametrize("terms", [2, 3, 5, 8, 12])
def test_analytic_apply_draws_at_most_one_more_derivative(terms, rng, monkeypatch):
    """A zero soul draws f(z_B, 0) only; an even soul draws what the power-by-power sum draws.  A
    soul with an odd part draws c_0..c_m for the first zero power e^m, at most one more than that
    sum, which runs on while rounding leaves u^n nonzero."""
    ctx = AlgebraContext(generators=64)

    def draws(z, series):
        seen = []

        def f(z0, n):
            seen.append(n)
            return cmath.exp(z0)

        with monkeypatch.context() as patch:
            patch.setattr(ga, "_soul_series", series)
            analytic_apply(f, z)
        return seen

    assert draws(ctx.scalar(0.5), ga._soul_series) == [0]
    mixed = mixed_soul_64(rng, terms)
    for u in (mixed, *parity_parts(mixed)):
        z = u + 0.5
        got, loop = draws(z, ga._soul_series), draws(z, ref_soul_series)
        e, o = parity_parts(u)
        if o.is_zero():
            assert got == loop
        else:
            assert got == list(range(first_zero_power(e) + 1))
            assert len(got) <= len(loop) + 1


def ref_kth_root(z, k):
    """The principal k-th root's binomial series written out inline."""
    body = z.body
    binomial = itertools.accumulate(itertools.count(), lambda c, n: c * ((1.0 / k - n) / (n + 1)), initial=1.0)
    return ga._soul_series(z.soul * (1.0 / body), binomial) * body ** (1.0 / k)


@pytest.mark.parametrize("kind", ["filled8", "sparse64"])
def test_kth_root_is_the_inline_binomial_series_bit_for_bit(kind, rng):
    for z in soul_series_inputs(kind, rng):
        for k in (2, 3, 4):
            assert hex_terms(kth_root(z, k)) == hex_terms(ref_kth_root(z, k))


def test_mul_sign_matches_merge_swap_count():
    """mul's scalar loop takes the sign of i_a i_b from a prefix-parity mask of b: checked
    on 105,000 random disjoint pairs of N = 64 keys, bit 63 in a or b half the time.  One
    left key meets 150 right keys per product (below the vectorized path's pair count),
    and each disjoint b lands on its own key a | b."""
    ctx = AlgebraContext(generators=64)
    rng = np.random.default_rng(64)
    assert 150 < ga._FAST_PATH_MIN_PAIRS
    checked = 0
    for i in range(700):
        a = int(rng.integers(0, 1 << 64, dtype=np.uint64, endpoint=False))
        a = a | 1 << 63 if i % 4 == 0 else a & ~(1 << 63)
        top = 1 << 63 if i % 4 == 1 else 0
        bs = {(int(b) | top) & ~a for b in rng.integers(0, 1 << 64, size=150, dtype=np.uint64, endpoint=False)}
        product = mul(Supernumber(ctx, {a: 1.0}), Supernumber(ctx, {b: 1.0 for b in bs}))
        assert product.terms == {a | b: -1.0 if merge_swap_count(a, b) & 1 else 1.0 for b in bs}
        checked += len(bs)
    assert checked >= 100_000
