"""Supernumber arithmetic: signs, products, dagger, norms, inverses, roots."""
import cmath
import math
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
from grasschur.errors import BodyZero, BranchCut, ContextMismatch
from grasschur.oracle import bubble_sort_sign
from grasschur.sampling import random_soul, random_supernumber


def idx(*gens):
    return index_from_generators(gens)


def dist(a, b):
    return (a - b).norm1()


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


def bitwise(terms):
    """Keys and coefficients as text: distinguishes -0.0 from 0.0, unlike ==."""
    return repr(list(terms.items()))


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
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

    @pytest.mark.parametrize("left,right", [(1, 256), (256, 1)])
    def test_lopsided_operands_bitwise(self, left, right, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=8)
        for _ in range(20):
            z, w = dense_terms(rng, 8, left), dense_terms(rng, 8, right)
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

    @pytest.mark.parametrize("gens", [10, 12, 16])
    def test_wide_contexts_bitwise(self, gens, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(10):
            z, w = dense_terms(rng, gens, 96), dense_terms(rng, gens, 96)
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

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
            assert bitwise(out.terms) == bitwise(public.terms)

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
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

    @pytest.mark.parametrize("gens,count,max_grade", [(12, 512, 12), (64, 320, 4)])
    def test_products_of_several_bands_bitwise(self, gens, count, max_grade, rng):
        # over 2**16 key pairs: the disjoint pairs are gathered a band of rows at a time
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=gens)
        for _ in range(2):
            z, w = (wide_terms(rng, gens, count, max_grade) for _ in range(2))
            assert len(z) * len(w) > 1 << 16
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

    @pytest.mark.parametrize("left,right", [(1, 256), (256, 1)])
    def test_lopsided_operands_bitwise_n64(self, left, right, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=64)
        for _ in range(20):
            z, w = wide_terms(rng, 64, left), wide_terms(rng, 64, right)
            assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

    def test_signed_zero_parts_bitwise_n64(self, rng):
        from grasschur.algebra import _mul_vectorized

        c = AlgebraContext(generators=64)
        signs = [(-0.0, 1.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, -1.0)]
        z = {k: complex(*signs[i % 4]) for i, k in enumerate(sorted(wide_terms(rng, 64, 24)))}
        w = {k: complex(*signs[i % 3]) for i, k in enumerate(sorted(wide_terms(rng, 64, 24)))}
        assert bitwise(_mul_vectorized(c, z, w)) == bitwise(scalar_product(z, w))

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
        assert bitwise(out.terms) == bitwise(public.terms)


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
