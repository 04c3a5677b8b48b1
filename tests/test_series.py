"""Star products, star inverses, evaluation, Wiener-Grassmann invertibility."""
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import grasschur
from grasschur import series
from grasschur import AlgebraContext, Supernumber, SuperMatrix, classify, dagger, index_from_generators, invert, mul
from grasschur.errors import (ConstantTermSingular, ContextMismatch, DomainViolation, NotInvertible, ShapeMismatch,
                              WindowTooSmall)
from grasschur.matrix import mat_invert, mat_mul
from grasschur.realization import Realization, to_series
from grasschur.sampling import random_soul, random_supermatrix, random_supernumber
from grasschur.series import (
    LaurentSeries,
    SeriesMatrix,
    backward_shift,
    evaluate,
    evaluate_right,
    evaluation_tail_bound,
    hermitian_form,
    laurent_star_mul,
    project_minus,
    project_plus,
    star_inverse,
    star_mul,
    weak_plus_invertibility,
    wiener_invert,
    wiener_is_invertible,
)


def scalar_series(ctx, bodies, exact=False):
    return SeriesMatrix(tuple(SuperMatrix.from_body(ctx, [[b]]) for b in bodies), exact=exact)


def random_series(ctx, rng, p, q, degree, **kwargs):
    return SeriesMatrix(
        tuple(random_supermatrix(ctx, rng, p, q, **kwargs) for _ in range(degree + 1))
    )


def series_dist(f, g):
    through = min(f.degree, g.degree)
    return sum((f.coeffs[n] - g.coeffs[n]).norm1() for n in range(through + 1))


class TestStarMul:
    def test_unit_neutral(self, ctx, rng):
        f = random_series(ctx, rng, 2, 2, 5)
        one = SeriesMatrix.identity(ctx, 2)
        assert series_dist(star_mul(f, one), f) == 0
        assert star_mul(f, one).degree == f.degree

    def test_monomials_multiply_exactly(self, ctx, rng):
        a = random_supernumber(ctx, rng)
        b = random_supernumber(ctx, rng)
        za = SeriesMatrix.from_coeffs(
            [SuperMatrix.zeros(ctx, 1, 1), SuperMatrix.from_scalar(a)], exact=True)
        zb = SeriesMatrix.from_coeffs(
            [SuperMatrix.zeros(ctx, 1, 1), SuperMatrix.from_scalar(b)], exact=True)
        prod = star_mul(za, zb)
        assert prod.exact and prod.degree == 2
        assert prod.coeffs[0].is_zero() and prod.coeffs[1].is_zero()
        assert prod.coeffs[2][0, 0] == mul(a, b)

    def test_scalar_complex_cauchy_product(self, ctx, rng):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        f = scalar_series(ctx, a)
        g = scalar_series(ctx, b)
        prod = star_mul(f, g)
        expected = np.convolve(a, b)[:6]
        got = np.array([c[0, 0].body for c in prod.coeffs])
        assert np.allclose(got, expected, atol=1e-12)

    def test_associative(self, ctx, rng):
        f = random_series(ctx, rng, 2, 2, 6, terms=3)
        g = random_series(ctx, rng, 2, 2, 6, terms=3)
        h = random_series(ctx, rng, 2, 2, 6, terms=3)
        lhs = star_mul(star_mul(f, g), h)
        rhs = star_mul(f, star_mul(g, h))
        assert series_dist(lhs, rhs) <= 1e-10 * f.norm1() * g.norm1() * h.norm1()

    def test_even_coefficients_make_sides_agree_on_eval(self, ctx, rng):
        f = random_series(ctx, rng, 1, 1, 4, parity="even")
        z0 = ctx.scalar(0.3) + random_soul(ctx, rng, parity="even", scale=0.1)
        left = evaluate(f, z0)
        right = evaluate_right(f, z0)
        assert (left - right).norm1() <= 1e-10 * max(1.0, f.norm1())


class TestTruncated:
    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "truncated"])
    @pytest.mark.parametrize("degree", [-1, -3])
    def test_negative_degree_is_a_domain_violation(self, ctx, rng, degree, exact):
        # -1 once gave a degree -1 series with no coefficient, -3 numpy's "negative dimensions"
        f = random_series(ctx, rng, 1, 1, 2)
        f = SeriesMatrix(f.coeffs, exact=exact)
        with pytest.raises(DomainViolation, match=f"degree must be >= 0, got {degree}"):
            f.truncated(degree)

    def test_degree_zero_keeps_the_constant(self, ctx, rng):
        f = random_series(ctx, rng, 2, 2, 3)
        assert f.truncated(0).coeffs == (f.coeffs[0],) and f.truncated(0).degree == 0


class TestStarInverse:
    def test_geometric_series(self, ctx):
        a = SuperMatrix.from_body(ctx, [[0.5]])
        one_minus = SeriesMatrix.from_coeffs([SuperMatrix.identity(ctx, 1), -a], exact=True)
        inv = star_inverse(one_minus)
        for n, c in enumerate(inv.coeffs):
            assert c[0, 0].body == pytest.approx(0.5**n)

    def test_two_sided_residual(self, ctx, rng):
        f = SeriesMatrix.from_coeffs(
            [SuperMatrix.identity(ctx, 2)]
            + [random_supermatrix(ctx, rng, 2, 2, scale=0.3) for _ in range(6)]
        )
        g = star_inverse(f)
        eye = SeriesMatrix.identity(ctx, 2)
        left = star_mul(f, g)
        right = star_mul(g, f)
        assert series_dist(left, eye) <= 1e-9 * max(1.0, f.norm1() * g.norm1())
        assert series_dist(right, eye) <= 1e-9 * max(1.0, f.norm1() * g.norm1())

    def test_nilpotent_first_coefficient(self, ctx, rng):
        f = SeriesMatrix.from_coeffs(
            [SuperMatrix.identity(ctx, 2),
             random_supermatrix(ctx, rng, 2, 2, body=0.0, scale=0.5)]
        , exact=True)
        g = star_inverse(f)
        assert series_dist(star_mul(f, g), SeriesMatrix.identity(ctx, 2)) <= 1e-10

    def test_singular_constant_term(self, ctx):
        f = SeriesMatrix.from_coeffs([SuperMatrix.zeros(ctx, 1, 1), SuperMatrix.identity(ctx, 1)], exact=True)
        with pytest.raises(ConstantTermSingular):
            star_inverse(f)


def resolvent(a, degree):
    """(I - zA)^{-star} = sum_n z^n A^n as the realization (A, A, I, I)."""
    eye = SuperMatrix.identity(a.context, a.rows)
    return to_series(Realization(a, a, eye, eye), degree)


class TestResolvent:
    def test_zero_matrix(self, ctx):
        r = resolvent(SuperMatrix.zeros(ctx, 2, 2), degree=4)
        assert r.coeffs[0] == SuperMatrix.identity(ctx, 2)
        assert all(c.is_zero() for c in r.coeffs[1:])

    def test_nilpotent_jordan_block(self, ctx):
        a = SuperMatrix.from_body(ctx, [[0.0, 1.0], [0.0, 0.0]])
        r = resolvent(a, degree=5)
        assert not r.coeffs[1].is_zero()
        assert all(c.is_zero() for c in r.coeffs[2:])

    def test_body_matches_neumann(self, ctx, rng):
        a_body = 0.4 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        a = SuperMatrix.from_body(ctx, a_body)
        r = resolvent(a, degree=8)
        for n, c in enumerate(r.coeffs):
            assert np.allclose(c.body(), np.linalg.matrix_power(a_body, n), atol=1e-12)


class TestEvaluate:
    def test_at_zero(self, ctx, rng):
        f = random_series(ctx, rng, 2, 2, 4)
        assert (evaluate(f, ctx.zero()) - f.coeffs[0]).norm1() == 0

    def test_geometric_at_half(self, ctx):
        f = scalar_series(ctx, [1.0] * 33)
        got = evaluate(f, ctx.scalar(0.5))
        assert got[0, 0].body == pytest.approx(2.0, abs=1e-9)

    def test_soul_evaluation_matches_analytic_apply(self, ctx, rng):
        from grasschur import analytic_apply

        z0 = ctx.scalar(0.4) + random_soul(ctx, rng, scale=0.1, parity="even")
        f = scalar_series(ctx, [1.0] * 33)  # the (1-z)^{-1} series
        got = evaluate(f, z0)[0, 0]

        def geom(c, n):
            import math

            return math.factorial(n) / (1 - c) ** (n + 1)

        expected = analytic_apply(geom, z0)
        assert (got - expected).norm1() <= 1e-8 * expected.norm1()

    def test_tail_bound_reporting(self, ctx):
        f = scalar_series(ctx, [1.0] * 5)
        assert evaluation_tail_bound(f, ctx.scalar(0.5)) > 0
        exact = scalar_series(ctx, [1.0, 2.0], exact=True)
        assert evaluation_tail_bound(exact, ctx.scalar(0.5)) == 0.0
        assert evaluate(exact, ctx.scalar(0.9))[0, 0].body == pytest.approx(2.8)


class TestHermitianForm:
    def test_constant_one(self, ctx):
        f = SeriesMatrix.identity(ctx, 1)
        assert hermitian_form(f, f)[0, 0] == ctx.one()

    def test_body_reduces_to_hardy_inner_product(self, ctx, rng):
        a = rng.normal(size=5) + 1j * rng.normal(size=5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = scalar_series(ctx, a)
        g = scalar_series(ctx, b)
        got = hermitian_form(f, g)[0, 0].body
        assert got == pytest.approx(np.sum(np.conj(b) * a))

    def test_kernel_self_form(self, ctx, rng):
        # [K(.,w)xi, K(.,w)xi] at small degree equals sum_n w^n (xi* xi) (w†)^n
        w = ctx.scalar(0.5) + random_soul(ctx, rng, scale=0.1)
        xi = ctx.scalar(1.0)
        coeffs = []
        wp = ctx.one()
        for n in range(6):
            coeffs.append(SuperMatrix.from_scalar(mul(dagger(wp), xi)))
            wp = mul(wp, w)  # (w†)^n built by daggering the power below
        k = SeriesMatrix.from_coeffs(coeffs)
        form = hermitian_form(k, k)[0, 0]
        expected = ctx.zero()
        for n in range(6):
            t1 = dagger(k.coeffs[n][0, 0])
            expected = expected + mul(t1, k.coeffs[n][0, 0])
        assert (form - expected).norm1() <= 1e-12 * max(1.0, expected.norm1())


class TestBackwardShift:
    def test_constant_dies(self, ctx, rng):
        f = SeriesMatrix.constant(random_supermatrix(ctx, rng, 2, 2))
        assert backward_shift(f).coeffs[0].is_zero()

    def test_monomial(self, ctx, rng):
        a = random_supermatrix(ctx, rng, 1, 1)
        f = SeriesMatrix.from_coeffs([SuperMatrix.zeros(ctx, 1, 1), a], exact=True)
        assert backward_shift(f).coeffs[0] == a

    def test_difference_quotient_at_complex_point(self, ctx, rng):
        f = random_series(ctx, rng, 1, 1, 6)
        lam = 0.37 + 0.21j
        shifted = evaluate(backward_shift(f), ctx.scalar(lam))
        direct = (evaluate(f, ctx.scalar(lam)) - f.coeffs[0]) * (1.0 / lam)
        assert (shifted - direct).norm1() <= 1e-10 * max(1.0, f.norm1())


class TestLaurent:
    def make_laurent(self, ctx, mapping):
        return LaurentSeries(
            max(abs(n) for n in mapping) if mapping else 0,
            {n: SuperMatrix.from_scalar(v) if hasattr(v, "context") else SuperMatrix.from_body(ctx, [[v]])
             for n, v in mapping.items()},
        )

    def test_projections_partition(self, ctx, rng):
        f = self.make_laurent(ctx, {-2: 1.0 + 0j, -1: 2.0, 0: 0.5, 1: -1.0, 2: 3.0})
        plus, minus = project_plus(f), project_minus(f)
        recombined = plus + minus - self.make_laurent(ctx, {0: 0.5})
        assert (recombined - f).norm1() == 0

    def test_plus_of_one_sided_is_identity(self, ctx):
        f = self.make_laurent(ctx, {0: 1.0, 1: 0.5, 3: 0.25})
        assert (project_plus(f) - f).norm1() == 0

    def test_body_riesz_projection(self, ctx, rng):
        coeffs = {n: complex(rng.normal(), rng.normal()) for n in range(-3, 4)}
        f = self.make_laurent(ctx, coeffs)
        plus = project_plus(f)
        for n, c in coeffs.items():
            if n >= 0:
                assert plus.coefficient(n)[0, 0].body == pytest.approx(c)
            else:
                assert plus.coefficient(n).is_zero()


class TestWiener:
    def make_scalar(self, ctx, mapping):
        return LaurentSeries(
            max((abs(n) for n in mapping), default=0),
            {n: SuperMatrix.from_scalar(v if hasattr(v, "context") else ctx.scalar(v))
             for n, v in mapping.items()},
        )

    def test_constant_invertible(self, ctx):
        assert wiener_is_invertible(self.make_scalar(ctx, {0: 1.0}))

    def test_vanishing_at_t0(self, ctx):
        f = self.make_scalar(ctx, {0: -1.0, 1: 1.0})  # e^{it} - 1
        assert not wiener_is_invertible(f)

    def test_soul_irrelevant(self, ctx):
        f = self.make_scalar(ctx, {0: ctx.scalar(2.0) + ctx.generator(1)})
        assert wiener_is_invertible(f)

    def test_constant_inverse(self, ctx):
        g = wiener_invert(self.make_scalar(ctx, {0: 2.0}))
        assert (g.coefficient(0)[0, 0] - ctx.scalar(0.5)).norm1() <= 1e-12

    def test_odd_soul_inverse(self, ctx):
        # f = 1 + i1 e^{it}: inverse 1 - i1 e^{it} since (i1 e^{it})^2 = 0
        f = self.make_scalar(ctx, {0: ctx.one(), 1: ctx.generator(1)})
        g = wiener_invert(f)
        residual = laurent_star_mul(f, g) - LaurentSeries.constant(SuperMatrix.identity(ctx, 1))
        assert max((c.norm1() for c in residual.coeffs.values()), default=0.0) <= 1e-9

    def test_geometric_inverse(self, ctx):
        f = self.make_scalar(ctx, {0: 1.0, 1: -0.5})  # 1 - e^{it}/2
        g = wiener_invert(f)
        for n in range(4):
            assert g.coefficient(n)[0, 0].body == pytest.approx(0.5**n, abs=1e-9)
        assert g.coefficient(-1).norm1() <= 1e-9

    def test_matrix_case_residual(self, ctx4, rng):
        ctx = ctx4
        eye = SuperMatrix.identity(ctx, 2)
        f = LaurentSeries(1, {
            -1: random_supermatrix(ctx, rng, 2, 2, scale=0.1, terms=2, max_grade=2),
            0: eye * 2 + random_supermatrix(ctx, rng, 2, 2, scale=0.2, body=0.0, terms=2, max_grade=2),
            1: random_supermatrix(ctx, rng, 2, 2, scale=0.1, terms=2, max_grade=2),
        })
        g = wiener_invert(f)
        residual = laurent_star_mul(f, g) - LaurentSeries.constant(eye)
        inside = [c.norm1() for n, c in residual.coeffs.items() if abs(n) <= f.window]
        assert max(inside, default=0.0) <= 1e-9

    def test_not_invertible_raises(self, ctx):
        with pytest.raises(NotInvertible):
            wiener_invert(self.make_scalar(ctx, {0: -1.0, 1: 1.0}))

    @pytest.mark.parametrize("phase", [0.37, 1.0])
    @pytest.mark.parametrize("low", [0, -1])
    def test_circle_zero_off_every_grid(self, ctx, phase, low):
        # z^low (1 - e^{-i phase} z) vanishes at e^{i phase}, which no grid of roots of unity holds
        f = self.make_scalar(ctx, {low: 1.0, low + 1: -np.exp(-1j * phase)})
        assert wiener_is_invertible(f) is False
        with pytest.raises(NotInvertible) as raised:
            wiener_invert(f)
        assert raised.value.code == "not-invertible"

    def test_matrix_determinant_zero_where_no_entry_vanishes(self, ctx):
        # F(z) = F_0 + z s u v^T with det F_0 = 1: det F = 1 + z s v^T adj(F_0) u = 1 - e^{-0.37i} z
        # vanishes at e^{0.37i} and its z^2 coefficient cancels; each entry F_0,ij + z s u_i v_j
        # has F_0,ij >= 1 > |s u_i v_j|, so none vanishes on the circle
        f0, uv = np.array([[2.0, 1.0], [1.0, 1.0]]), np.outer([1.0, 2.0], [1.0, 3.0])
        f = LaurentSeries(1, {0: SuperMatrix.from_body(ctx, f0),
                              1: SuperMatrix.from_body(ctx, -np.exp(-0.37j) / 8 * uv)})
        circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
        entries = f0[None] + circle[:, None, None] * (-np.exp(-0.37j) / 8 * uv)[None]
        assert np.abs(entries).min() > 0.2
        assert wiener_is_invertible(f) is False

    def test_sampling_options_are_gone(self, ctx):
        with pytest.raises(TypeError):
            wiener_is_invertible(self.make_scalar(ctx, {0: 1.0}), grid_points=256)

    def test_grade_four_souls_residual_over_inner_band(self, ctx, rng):
        # N = 8 with grade-4 souls: the pointwise soul series takes several steps
        eye = SuperMatrix.identity(ctx, 2)
        f = LaurentSeries(2, {
            -2: random_supermatrix(ctx, rng, 2, 2, scale=0.05, terms=4, max_grade=4),
            -1: random_supermatrix(ctx, rng, 2, 2, scale=0.2, terms=4, max_grade=4),
            0: eye * 2 + random_supermatrix(ctx, rng, 2, 2, scale=0.3, body=0.0, terms=4, max_grade=4),
            1: random_supermatrix(ctx, rng, 2, 2, scale=0.2, terms=4, max_grade=4),
        })
        assert max(c[i, j].max_grade() for c in f.coeffs.values() for i in range(2) for j in range(2)) == 4
        g = wiener_invert(f)
        assert max(g.coefficient(0)[i, j].max_grade() for i in range(2) for j in range(2)) >= 8
        residual = laurent_star_mul(f, g) - LaurentSeries.constant(eye)
        band = g.window - f.window
        assert band >= 8
        inside = [c.norm1() for n, c in residual.coeffs.items() if abs(n) <= band]
        assert max(inside, default=0.0) <= 1e-9

    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_series_is_not_invertible(self, ctx, p):
        f = LaurentSeries(1, {0: SuperMatrix.zeros(ctx, p, p)})
        assert f.context is ctx and wiener_is_invertible(f) is False
        with pytest.raises(NotInvertible):
            wiener_invert(f)

    def test_grid_doubles_from_the_default_start(self, ctx, monkeypatch):
        # the coefficients 0.9^n alias on the 64-point start grid: the grid doubles until G certifies
        grids, on_circle = [], series._on_circle
        monkeypatch.setattr(series, "_on_circle", lambda stack, low, points: grids.append(points) or on_circle(
            stack, low, points))
        f = self.make_scalar(ctx, {0: 1.0, 1: -0.9})
        g = wiener_invert(f)
        tried = grids[1:]  # grids[0] is wiener_is_invertible's determinant grid
        assert len(grids) >= 3 and tried[:2] == [64, 128]
        assert tried == [64 << k for k in range(len(tried))] and tried[-1] <= series._MAX_GRID
        eye = LaurentSeries.constant(SuperMatrix.identity(ctx, 1))
        assert (laurent_star_mul(f, g) - eye).norm1() <= ctx.tol_eq

    def test_window_too_small(self, ctx):
        # the coefficients 0.9995^n need more than the 2^16 grid points of the cap to settle
        f = self.make_scalar(ctx, {0: 1.0, 1: -0.9995})
        assert wiener_is_invertible(f)
        with pytest.raises(WindowTooSmall):
            wiener_invert(f)

    @pytest.mark.parametrize("call", ["wiener_is_invertible", "wiener_invert"])
    def test_far_apart_powers_end_in_too_large(self, call):
        # The grid for powers 0 and 20000 has 640,016 points; its phase matrix alone
        # would take 95.4 GiB.  The child caps its own address space at 2 GiB, so a
        # missing check ends there in MemoryError, not in the host's memory.
        script = textwrap.dedent(f"""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from grasschur import AlgebraContext, SuperMatrix
            from grasschur.errors import TooLarge
            from grasschur.series import LaurentSeries, {call}
            one = SuperMatrix.identity(AlgebraContext(generators=8), 1)
            try:
                {call}(LaurentSeries(20000, {{0: one * 2.0, 20000: one}}))
            except TooLarge as exc:
                print(exc.code)
        """)
        path = os.pathsep.join([str(Path(grasschur.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        assert (done.returncode, done.stdout) == (0, "too-large\n"), done.stderr


def wiener_inputs(ctx, ctx4, rng):
    """The series the TestWiener cases invert: scalar, soul-bearing and 2x2, windows 1 and 2."""
    scalar = TestWiener().make_scalar
    return [
        scalar(ctx, {0: 2.0}),
        scalar(ctx, {0: ctx.one(), 1: ctx.generator(1)}),
        scalar(ctx, {0: 1.0, 1: -0.5}),
        LaurentSeries(1, {
            -1: random_supermatrix(ctx4, rng, 2, 2, scale=0.1, terms=2, max_grade=2),
            0: SuperMatrix.identity(ctx4, 2) * 2 + random_supermatrix(
                ctx4, rng, 2, 2, scale=0.2, body=0.0, terms=2, max_grade=2),
            1: random_supermatrix(ctx4, rng, 2, 2, scale=0.1, terms=2, max_grade=2)}),
        LaurentSeries(2, {
            -2: random_supermatrix(ctx, rng, 2, 2, scale=0.05, terms=4, max_grade=4),
            -1: random_supermatrix(ctx, rng, 2, 2, scale=0.2, terms=4, max_grade=4),
            0: SuperMatrix.identity(ctx, 2) * 2 + random_supermatrix(
                ctx, rng, 2, 2, scale=0.3, body=0.0, terms=4, max_grade=4),
            1: random_supermatrix(ctx, rng, 2, 2, scale=0.2, terms=4, max_grade=4)}),
    ]


class TestWienerCertificate:
    def test_residual_over_every_power(self, ctx, ctx4, rng):
        for f in wiener_inputs(ctx, ctx4, rng):
            g = wiener_invert(f)
            eye = LaurentSeries.constant(SuperMatrix.identity(f.context, f.shape[0]))
            assert (laurent_star_mul(f, g) - eye).norm1() <= f.context.tol_eq
            assert g.window == max(f.window, *map(abs, g.coeffs))

    def test_declared_window_does_not_size_the_grid(self, ctx):
        # the grids follow the stored powers; sized from this window they would need 3.2e13 points
        f = LaurentSeries(10**12, {0: SuperMatrix.from_body(ctx, [[2.0]])})
        assert wiener_is_invertible(f)
        g = wiener_invert(f)
        assert g.window == 10**12 and list(g.coeffs) == [0]
        assert (g.coefficient(0) - SuperMatrix.from_body(ctx, [[0.5]])).norm1() <= 1e-15


class TestWeakInvertibility:
    def test_small_slope(self, ctx):
        f = scalar_series(ctx, [1.0, -0.25], exact=True)
        assert weak_plus_invertibility(f)

    def test_vanishes_on_boundary(self, ctx):
        f = scalar_series(ctx, [1.0, -1.0], exact=True)
        assert not weak_plus_invertibility(f)

    def test_soul_invariant(self, ctx, rng):
        base = [1.0, -0.25, 0.1]
        f = scalar_series(ctx, base, exact=True)
        soulful = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_scalar(ctx.scalar(b) + random_soul(ctx, rng, scale=0.5)) for b in base],
            exact=True,
        )
        assert weak_plus_invertibility(f) == weak_plus_invertibility(soulful) is True
        g = scalar_series(ctx, [1.0, -1.0], exact=True)
        soulful_g = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_scalar(ctx.scalar(b) + random_soul(ctx, rng, scale=0.5)) for b in (1.0, -1.0)],
            exact=True,
        )
        assert weak_plus_invertibility(g) == weak_plus_invertibility(soulful_g) is False

    @pytest.mark.parametrize("roots, invertible", [
        ([0.5], False), ([0.5 * np.exp(0.3j)], False), ([0.99], False),  # inside
        ([1.0], False), ([np.exp(0.37j)], False), ([1.0, 1.0], False),  # on the circle, (1 - z)^2 included
        ([1.01], True), ([2.0], True), ([2.0, 0.5j], False),  # outside, and one root on each side
    ])
    def test_chosen_roots(self, ctx, rng, roots, invertible):
        # p(z) = prod (z - r): the verdict holds for the exact polynomial, for the same
        # coefficients as a truncated series and with a soul on every coefficient
        bodies = np.poly(roots)[::-1]
        soulful = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_scalar(ctx.scalar(b) + random_soul(ctx, rng, scale=0.5)) for b in bodies], exact=True)
        for f in (scalar_series(ctx, bodies, exact=True), scalar_series(ctx, bodies), soulful):
            assert weak_plus_invertibility(f) is invertible

    @pytest.mark.parametrize("bodies, invertible", [
        ([0.0], False), ([0.0, 0.0, 0.0], False), ([1e-11, 1e-11], False), ([3.0], True), ([0.0, 1.0], False),
    ])
    def test_zero_and_constant_polynomials(self, ctx, bodies, invertible):
        assert weak_plus_invertibility(scalar_series(ctx, bodies, exact=True)) is invertible

    def test_random_polynomials_against_the_winding_number(self, ctx):
        # roots kept at least 1e-3 from the circle; the zeros in the disk are counted
        # independently as the winding number of p along 2^15 points of the circle
        rng = np.random.default_rng(7)
        circle = np.exp(2j * np.pi * np.arange(1 << 15) / (1 << 15))
        verdicts = []
        for _ in range(300):
            k = int(rng.integers(0, 12))
            radii = np.where(rng.random(k) < 0.2, rng.uniform(0.3, 0.999, k), rng.uniform(1.001, 1.7, k))
            roots = radii * np.exp(2j * np.pi * rng.random(k))
            bodies = np.atleast_1d(np.poly(roots))[::-1] * np.exp(2j * np.pi * rng.random())
            values = np.polyval(bodies[::-1], circle)
            winding = round(np.angle(np.roll(values, -1) / values).sum() / (2 * np.pi))
            assert winding == (radii < 1).sum()
            verdicts.append(weak_plus_invertibility(scalar_series(ctx, bodies, exact=True)))
            assert verdicts[-1] is (winding == 0)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_sampling_options_are_gone(self, ctx):
        with pytest.raises(TypeError):
            weak_plus_invertibility(scalar_series(ctx, [1.0], exact=True), radial_points=24)


# -- the (keys, degree+1, rows, cols) layout against coefficient-loop references --


def ref_star_mul(f, g):
    """The coefficient loop: (f⋆g)_n = sum_u f_u g_{n-u}, one mat_mul per pair."""
    cap = f.context.max_series_degree
    if f.exact and g.exact:
        degree, exact = min(f.degree + g.degree, cap), f.degree + g.degree <= cap
    else:
        degree = min(h.degree for h in (f, g) if not h.exact)
        exact = False
    out = []
    for n in range(degree + 1):
        acc = SuperMatrix.zeros(f.context, f.shape[0], g.shape[1])
        for u in range(n + 1):
            if u <= f.degree and n - u <= g.degree:
                acc = acc + mat_mul(f.coeffs[u], g.coeffs[n - u])
        out.append(acc)
    return out, exact


def ref_star_inverse(f):
    """The recurrence g_0 = f_0⁻¹, g_n = -f_0⁻¹ sum_{u=1..n} f_u g_{n-u} on supermatrices."""
    g0 = mat_invert(f.coeffs[0])
    degree = f.context.max_series_degree if f.exact and f.degree else f.degree
    out = [g0]
    for n in range(1, degree + 1):
        acc = SuperMatrix.zeros(f.context, *f.shape)
        for u in range(1, min(n, f.degree) + 1):
            acc = acc + mat_mul(f.coeffs[u], out[n - u])
        out.append(-mat_mul(g0, acc))
    return out, f.exact and not f.degree


def ref_evaluate(f, z0, left):
    """sum_n z0^n f_n (left) or sum_n f_n z0^n, one scaled coefficient at a time."""
    acc, power = f.coeffs[0], z0.context.one()
    for c in f.coeffs[1:]:
        power = mul(power, z0)
        acc = acc + (c.scale_left(power) if left else c.scale_right(power))
    return acc


def matches(got, want_coeffs, exact):
    """Same degree and flag, and the coefficients within 1e-12 relative in the 1-norm."""
    scale = max(1.0, sum(c.norm1() for c in want_coeffs))
    gap = sum((a - b).norm1() for a, b in zip(got.coeffs, want_coeffs))
    return got.degree == len(want_coeffs) - 1 and got.exact == exact and gap <= 1e-12 * scale


def stack_number(ctx, rng, body, field, terms=3):
    """A filled-in entry (every monomial) at N = 8, or one of a few soul terms holding
    generator 64 in every other term."""
    if field == "filled8":
        return Supernumber(ctx, {k: body if k == 0 else 0.05 * complex(*rng.normal(size=2))
                                 for k in range(1 << ctx.generators)})
    raw = {0: body}
    for t in range(terms):
        gens = rng.choice(np.arange(1, 64), size=int(rng.integers(1, 3)), replace=False).tolist()
        raw[index_from_generators(sorted(gens + [64] * (t % 2)))] = 0.2 * complex(*rng.normal(size=2))
    return Supernumber(ctx, raw)


def stack_series(ctx, rng, n, degree, exact, field, lead=0.0, terms=3):
    """Series whose constant body is lead·I plus noise; every coefficient carries souls."""
    coeffs = []
    for d in range(degree + 1):
        body = 0.3 * rng.normal(size=(n, n)) + (lead * np.eye(n) if d == 0 else 0.0)
        coeffs.append(SuperMatrix.from_rows([[stack_number(ctx, rng, complex(body[i, j]), field, terms)
                                              for j in range(n)] for i in range(n)]))
    return SeriesMatrix.from_coeffs(coeffs, exact=exact)


FIELDS = {"filled8": AlgebraContext(generators=8, max_series_degree=7),
          "sparse64": AlgebraContext(generators=64, max_series_degree=7)}
EXACT_FLAGS = [(False, False), (True, False), (False, True), (True, True)]


class TestStackLayout:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("flags", EXACT_FLAGS, ids=["trunc-trunc", "exact-trunc", "trunc-exact", "exact-exact"])
    def test_star_mul_matches_coefficient_loop(self, rng, field, n, flags):
        ctx = FIELDS[field]
        f = stack_series(ctx, rng, n, 3, flags[0], field)
        g = stack_series(ctx, rng, n, 5, flags[1], field)
        if field == "sparse64":
            assert int(f.keys[-1]) >= 1 << 63
        else:
            assert len(f.keys) == 256
        assert matches(star_mul(f, g), *ref_star_mul(f, g))
        assert matches(star_mul(g, f), *ref_star_mul(g, f))

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("exact", [False, True])
    def test_star_inverse_matches_recurrence(self, rng, field, n, exact):
        ctx = FIELDS[field]
        # the inverse holds every product of disjoint soul monomials: keep the sparse one small
        f = stack_series(ctx, rng, n, 3 if field == "filled8" else 1, exact, field, lead=2.0, terms=1)
        g = star_inverse(f)
        assert matches(g, *ref_star_inverse(f))
        eye = SeriesMatrix.identity(ctx, n)
        scale = max(1.0, f.norm1() * g.norm1())
        assert series_dist(star_mul(f, g), eye) <= 1e-12 * scale
        assert series_dist(star_mul(g, f), eye) <= 1e-12 * scale

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_evaluation_matches_power_sum(self, rng, field, n):
        ctx = FIELDS[field]
        f = stack_series(ctx, rng, n, 5, False, field)
        soul = stack_number(ctx, rng, 0j, field)
        for z0 in (ctx.scalar(0.4 + 0.1j) + soul, soul, ctx.zero()):  # nilpotent powers stop early
            for left, fn in ((True, evaluate), (False, evaluate_right)):
                want = ref_evaluate(f, z0, left)
                assert (fn(f, z0) - want).norm1() <= 1e-12 * max(1.0, want.norm1())

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("flags", EXACT_FLAGS, ids=["trunc-trunc", "exact-trunc", "trunc-exact", "exact-exact"])
    def test_linear_and_structural_maps_match_coefficients(self, rng, field, flags):
        ctx = FIELDS[field]
        f = stack_series(ctx, rng, 2, 3, flags[0], field)
        g = stack_series(ctx, rng, 2, 5, flags[1], field)
        degree = max(f.degree, g.degree) if f.exact and g.exact else min(
            h.degree for h in (f, g) if not h.exact)
        for got, sign in ((f + g, 1.0), (f - g, -1.0)):
            assert matches(got, [f.coefficient(k) + g.coefficient(k) * sign for k in range(degree + 1)],
                           f.exact and g.exact)
        assert matches(f.block(0, 2, 1, 2), [c.submatrix(range(2), [1]) for c in f.coeffs], f.exact)
        assert matches(f.block(1, 2, 0, 1), [c.submatrix([1], [0]) for c in f.coeffs], f.exact)
        assert matches(f.truncated(1), list(f.coeffs[:2]), False)
        padded = f.truncated(6)
        if f.exact:
            assert matches(padded, [f.coefficient(k) for k in range(7)], True)
        else:
            assert padded is f
        assert matches(backward_shift(g), list(g.coeffs[1:]), g.exact)
        assert matches(f.shift_up(), [SuperMatrix.zeros(ctx, 2, 2), *f.coeffs], f.exact)
        s = stack_number(ctx, rng, 0.5 + 0j, field)
        assert matches(f.scale_left(s), [c.scale_left(s) for c in f.coeffs], f.exact)
        assert matches(f.scale_right(s), [c.scale_right(s) for c in f.coeffs], f.exact)

    @pytest.mark.parametrize("field", FIELDS)
    def test_coefficients_round_trip(self, rng, field):
        ctx = FIELDS[field]
        f = stack_series(ctx, rng, 2, 4, False, field)
        assert SeriesMatrix.from_coeffs(f.coeffs) == f
        e = stack_series(ctx, rng, 1, 2, True, field)
        assert SeriesMatrix.from_coeffs(e.coeffs, exact=True) == e
        assert SeriesMatrix.from_coeffs(e.coeffs) != e  # the flag is part of the value
        assert all(c == SuperMatrix.from_rows(c.entries()) for c in f.coeffs)

    def test_zero_coefficients_leave_no_key(self, ctx, rng):
        f = random_series(ctx, rng, 2, 2, 4)
        for z in (f - f, f * 0, SeriesMatrix.zero(ctx, 2, 2), backward_shift(SeriesMatrix.constant(f.coeffs[0]))):
            assert len(z.keys) == 0 and z.norm1() == 0.0
            assert all(c.is_zero() for c in z.coeffs)
        assert (f - f).degree == 4 and backward_shift(SeriesMatrix.constant(f.coeffs[0])).degree == 0


# -- the Laurent (keys, span, rows, cols) layout against the per-power-pair reference --


def ref_laurent_star_mul(f, g):
    """The per-power-pair loop: one mat_mul per pair of stored powers."""
    out = {}
    for nf, a in f.coeffs.items():
        for ng, b in g.coeffs.items():
            term = mat_mul(a, b)
            out[nf + ng] = out[nf + ng] + term if nf + ng in out else term
    return LaurentSeries(f.window + g.window, out or {0: SuperMatrix.zeros(f.context, f.shape[0], g.shape[1])})


def random_laurent(ctx, rng, powers, window, p, q):
    return LaurentSeries(window, {n: random_supermatrix(ctx, rng, p, q, scale=0.5, terms=3, max_grade=3)
                                  for n in powers} or {0: SuperMatrix.zeros(ctx, p, q)})


class TestLaurentLayout:
    @pytest.mark.parametrize("powers", [((-3, 0, 4), (-1, 2)), ((5,), (-7, -2, 6)), ((), (0, 1)), ((-1, 1), ())],
                             ids=["gapped", "one-sided", "empty-left", "empty-right"])
    @pytest.mark.parametrize("shapes", [(1, 1, 1), (2, 3, 1)], ids=["1x1", "2x3-3x1"])
    def test_star_mul_matches_per_power_pairs(self, ctx, rng, powers, shapes):
        p, r, q = shapes
        f = random_laurent(ctx, rng, powers[0], max(map(abs, powers[0]), default=0) + 1, p, r)
        g = random_laurent(ctx, rng, powers[1], max(map(abs, powers[1]), default=0) + 3, r, q)
        want, got = ref_laurent_star_mul(f, g), laurent_star_mul(f, g)
        assert (got.window, got.shape) == (want.window, want.shape) == (f.window + g.window, (p, q))
        assert list(got.coeffs) == list(want.coeffs)
        gap = sum((got.coefficient(n) - c).norm1() for n, c in want.coeffs.items())
        assert gap <= 1e-14 * max(1.0, f.norm1() * g.norm1())

    def test_layout_and_views(self, ctx, rng):
        a, b = (random_supermatrix(ctx, rng, 2, 2) for _ in range(2))
        f = LaurentSeries(4, {1: b, -2: a, 3: SuperMatrix.zeros(ctx, 2, 2)})
        assert f.low == -2 and f.stack.shape == (len(f.keys), 4, 2, 2) and np.all(f.keys[1:] > f.keys[:-1])
        assert list(f.coeffs) == [-2, 1] and f.coeffs[-2] == a and f.coeffs[1] == b
        assert f.coefficient(0).is_zero() and f.coefficient(9).is_zero() and f.context is ctx
        assert f == LaurentSeries(4, {-2: a, 1: b}) and f != LaurentSeries(5, {-2: a, 1: b})
        with pytest.raises(TypeError):
            hash(f)
        trimmed = f - LaurentSeries(2, {-2: a})
        assert (trimmed.low, trimmed.stack.shape[1]) == (1, 1) and trimmed == LaurentSeries(4, {1: b})
        assert project_plus(f) == trimmed and project_minus(f) == LaurentSeries(4, {-2: a})
        zero = f - f
        assert zero.context is ctx and zero.shape == (2, 2) and zero.coeffs == {} and zero.norm1() == 0.0
        assert zero == LaurentSeries(4, {0: SuperMatrix.zeros(ctx, 2, 2)}) and zero + f == f and f + zero == f

    def test_zero_series_keeps_its_context(self, ctx, rng):
        f = random_laurent(ctx, rng, (-1, 2), 3, 2, 2)
        g = random_laurent(ctx, rng, (0, 1), 2, 2, 3)
        zero = f - f
        assert zero.context is ctx and zero.shape == (2, 2) and (zero.low, zero.stack.shape[1]) == (0, 1)
        assert zero.coefficient(-1) == SuperMatrix.zeros(ctx, 2, 2) and zero + f == f
        product = laurent_star_mul(zero, g)
        assert product.context is ctx and product.shape == (2, 3) and product.is_zero()
        assert product.window == zero.window + g.window == 5
        assert wiener_is_invertible(zero) is False
        with pytest.raises(NotInvertible):
            wiener_invert(zero)

    def test_far_apart_powers_end_in_too_large(self):
        # Without the budget numpy is asked for 596 GiB.  The child caps its own address
        # space at 2 GiB, so a missing check ends there in MemoryError, not in the host's memory.
        script = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from grasschur import AlgebraContext, SuperMatrix
            from grasschur.errors import TooLarge
            from grasschur.serialization import laurent_from_obj, matrix_to_obj
            ctx = AlgebraContext(generators=8)
            m = matrix_to_obj(SuperMatrix.identity(ctx, 2))
            try:
                laurent_from_obj({"window": 10**10, "coeffs": {"0": m, "10000000000": m}}, ctx)
            except TooLarge as exc:
                print(exc.code)
        """)
        path = os.pathsep.join([str(Path(grasschur.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert (done.returncode, done.stdout) == (0, "too-large\n"), done.stderr

    def test_malformed_construction(self, ctx, ctx4):
        one = SuperMatrix.identity(ctx, 1)
        with pytest.raises(ValueError):
            LaurentSeries(1, {2: one})
        with pytest.raises(ValueError):
            LaurentSeries(1, {})
        with pytest.raises(ShapeMismatch):
            LaurentSeries(1, {0: one, 1: SuperMatrix.identity(ctx, 2)})
        with pytest.raises(ContextMismatch):
            LaurentSeries(1, {0: one, 1: SuperMatrix.identity(ctx4, 1)})
        with pytest.raises(ContextMismatch):
            LaurentSeries.constant(one) + LaurentSeries.constant(SuperMatrix.identity(ctx4, 1))
