"""Cross-module property tests tying the pieces together."""
from itertools import combinations

import numpy as np

from grasschur import (
    AlgebraContext,
    classify,
    dagger,
    invert,
    is_supernonnegative,
    mul,
    quadratic_form,
)
from grasschur.realization import is_J_unitary, to_series
from grasschur.sampling import (
    random_even_unit,
    random_soul,
    random_supermatrix,
    random_supernumber,
    random_superpositive_matrix,
)
from grasschur.schur import InterpolationData, build_theta, np_solve, pick_matrix
from grasschur.series import SeriesMatrix, evaluate, star_mul


def test_parity_structure_exhaustive_n6():
    # odd x odd lands in the even part; even basis monomials are central
    ctx = AlgebraContext(generators=6)
    gens = range(1, 7)
    monomials = [idx for r in range(7) for idx in combinations(gens, r)]
    for a in monomials:
        for b in monomials:
            za, zb = ctx.basis(a), ctx.basis(b)
            prod = mul(za, zb)
            if prod.is_zero():
                continue
            if len(a) % 2 == 1 and len(b) % 2 == 1:
                assert classify(prod).is_even
            if len(a) % 2 == 0:
                assert mul(za, zb) == mul(zb, za)


def test_norm_submultiplicative_bulk():
    ctx = AlgebraContext(generators=64)
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        z = random_supernumber(ctx, rng, terms=4, max_grade=3)
        w = random_supernumber(ctx, rng, terms=4, max_grade=3)
        assert mul(z, w).norm1() <= z.norm1() * w.norm1() * (1 + 1e-12)


def test_quadratic_form_sampling_bulk(ctx):
    rng = np.random.default_rng(8)
    m = random_superpositive_matrix(ctx, rng, 3, terms=2, max_grade=2)
    assert is_supernonnegative(m)
    for _ in range(1000):
        c = random_supermatrix(ctx, rng, 3, 1, terms=2, max_grade=2)
        assert classify(quadratic_form(m, c)).is_supernonnegative


def test_evaluate_is_morphism_at_complex_points(ctx):
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = SeriesMatrix.from_coeffs(
            [random_supermatrix(ctx, rng, 2, 2, terms=2) for _ in range(5)], exact=True)
        g = SeriesMatrix.from_coeffs(
            [random_supermatrix(ctx, rng, 2, 2, terms=2) for _ in range(5)], exact=True)
        lam = ctx.scalar(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)))
        lhs = evaluate(star_mul(f, g), lam)
        rhs = evaluate(f, lam) @ evaluate(g, lam)
        assert (lhs - rhs).norm1() <= 1e-10 * max(1.0, f.norm1() * g.norm1())


def test_evaluate_morphism_extends_to_even_souls(ctx):
    rng = np.random.default_rng(10)
    f = SeriesMatrix.from_coeffs(
        [random_supermatrix(ctx, rng, 1, 1, terms=2, parity="even") for _ in range(4)], exact=True)
    g = SeriesMatrix.from_coeffs(
        [random_supermatrix(ctx, rng, 1, 1, terms=2, parity="even") for _ in range(4)], exact=True)
    z0 = ctx.scalar(0.3) + random_soul(ctx, rng, parity="even", scale=0.1)
    lhs = evaluate(star_mul(f, g), z0)
    rhs = evaluate(f, z0) @ evaluate(g, z0)
    assert (lhs - rhs).norm1() <= 1e-10 * max(1.0, f.norm1() * g.norm1())


def test_theta_is_J_unitary_at_samples():
    ctx = AlgebraContext(generators=8, max_series_degree=8)
    rng = np.random.default_rng(11)
    data = InterpolationData(
        (ctx.scalar(0.3) + random_soul(ctx, rng, terms=2, scale=0.05),
         ctx.scalar(-0.2j) + random_soul(ctx, rng, terms=2, scale=0.05)),
        (ctx.scalar(0.25), ctx.scalar(0.1 + 0.1j)),
    )
    theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
    r = theta.realization
    # the realization reproduces the series
    f = to_series(r, degree=8)
    assert sum((a - b).norm1() for a, b in zip(f.coeffs, theta.series.coeffs)) <= 1e-9
    assert is_J_unitary(r, data.signature())


def test_schur_kernel_superpositive_at_samples(ctx):
    rng = np.random.default_rng(12)
    data = InterpolationData(
        (ctx.scalar(0.25), ctx.scalar(-0.2)),
        (ctx.scalar(0.3), ctx.scalar(0.21)),
    )
    s = np_solve(data).series
    for _ in range(4):
        z = random_even_unit(ctx, rng, body_modulus=0.35, soul_scale=0.03)
        value = evaluate(s, z)[0, 0]
        kernel = mul(invert(ctx.one() - mul(z, dagger(z))),
                     ctx.one() - mul(value, dagger(value)))
        # truncation of s makes this approximate: clean up to tol, then classify
        report = classify(kernel)
        assert abs(kernel.body.imag) <= 1e-8
        assert kernel.body.real > 0
        assert (kernel - dagger(kernel)).norm1() <= 1e-7 * max(1.0, kernel.norm1())
    report = classify(evaluate(s, ctx.zero())[0, 0])
    assert abs(report.body) < 1


def test_shift_span_full_for_generic_series(ctx):
    rng = np.random.default_rng(13)
    from grasschur.realization import backward_shift_span_dimension

    coeffs = [random_supermatrix(ctx, rng, 1, 1, terms=1) for _ in range(12)]
    f = SeriesMatrix.from_coeffs(coeffs)
    # generic random data admits no low-dimensional shift span
    assert backward_shift_span_dimension(f, 4) == 5
