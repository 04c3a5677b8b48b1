"""Realization calculus: series expansion, inversion, composition, rank tests."""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import grasschur.algebra as ga
from grasschur import AlgebraContext, SuperMatrix, mat_invert, mat_mul
from grasschur.errors import DomainViolation, DSingular, JInvalid, ShapeMismatch
from grasschur.realization import (
    Realization,
    backward_shift_span_dimension,
    compose,
    evaluate_rational,
    inverse_realization,
    is_controllable,
    is_J_unitary,
    is_minimal,
    is_observable,
    polynomial_realization,
    to_series,
)
from grasschur.sampling import random_even_unit, random_soul, random_supermatrix
from grasschur.schur import InterpolationData, build_theta, pick_matrix, stein_solve
from grasschur.series import SeriesMatrix, evaluate, evaluate_right, star_inverse, star_mul


def series_dist(f, g):
    through = min(f.degree, g.degree)
    return sum((f.coeffs[n] - g.coeffs[n]).norm1() for n in range(through + 1))


def random_realization(ctx, rng, n, p, q, spectral=0.5, scale=0.3, invertible_d=False):
    a_body = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    radius = max(abs(np.linalg.eigvals(a_body)))
    a_body *= spectral / max(radius, 1e-9)
    a = SuperMatrix.from_body(ctx, a_body) + random_supermatrix(ctx, rng, n, n, body=0.0, scale=scale, terms=2)
    b = random_supermatrix(ctx, rng, n, q, scale=scale, terms=2)
    c = random_supermatrix(ctx, rng, p, n, scale=scale, terms=2)
    if invertible_d:
        d = SuperMatrix.from_body(ctx, 2 * np.eye(max(p, q))[:p, :q]) + random_supermatrix(
            ctx, rng, p, q, scale=scale, terms=2, body=0.0)
    else:
        d = random_supermatrix(ctx, rng, p, q, scale=scale, terms=2)
    return Realization(a=a, b=b, c=c, d=d)


class TestToSeries:
    def test_zero_blocks_give_constant(self, ctx, rng):
        d = random_supermatrix(ctx, rng, 2, 2)
        r = Realization.constant(d)
        f = to_series(r, degree=5)
        assert f.coeffs[0] == d
        assert all(c.is_zero() for c in f.coeffs[1:])

    @pytest.mark.parametrize("degree", [-1, True, 2.0, 33, 40], ids=["negative", "bool", "float", "33", "40"])
    def test_degree_outside_the_context_is_a_domain_violation(self, ctx, rng, monkeypatch, degree):
        def no_product(*args):
            raise AssertionError("a product ran before the degree was checked")

        monkeypatch.setattr("grasschur.realization._planned_product", no_product)
        with pytest.raises(DomainViolation, match="degree must be an integer in 0..32"):
            to_series(random_realization(ctx, rng, 2, 1, 1), degree)

    def test_monomial(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 2, 3)
        p, q = m.shape
        # z*M: C = M, A = D = 0, B = I
        r = Realization(SuperMatrix.zeros(ctx, q, q), SuperMatrix.identity(ctx, q), m, SuperMatrix.zeros(ctx, p, q))
        f = to_series(r, degree=4)
        assert f.coeffs[0].is_zero()
        assert (f.coeffs[1] - m).norm1() == 0
        assert all(c.is_zero() for c in f.coeffs[2:])

    def test_matches_star_expansion(self, ctx, rng):
        r = random_realization(ctx, rng, 3, 2, 2)
        f = to_series(r, degree=10)
        # D + zC ⋆ (I-zA)^{-star} ⋆ B assembled with series primitives
        eye = SuperMatrix.identity(ctx, r.state_dim)
        res = star_inverse(SeriesMatrix.from_coeffs([eye, -r.a], exact=True)).truncated(10)
        tail = star_mul(star_mul(SeriesMatrix.constant(r.c), res), SeriesMatrix.constant(r.b))
        expected = SeriesMatrix.constant(r.d) + tail.shift_up().truncated(10)
        assert series_dist(f, expected) <= 1e-10 * max(1.0, f.norm1())


def ref_to_series(r, degree=None):
    """to_series as one mat_mul per product, D, CB, C(AB), C(A(AB)), ...: the reference
    the planned loop must reproduce bit for bit."""
    degree = r.context.max_series_degree if degree is None else degree
    coeffs = [r.d]
    if degree >= 1:
        power = r.b
        coeffs.append(mat_mul(r.c, power))
        for _ in range(2, degree + 1):
            power = mat_mul(r.a, power)
            coeffs.append(mat_mul(r.c, power))
    return SeriesMatrix(tuple(coeffs), exact=False)


def assert_same_bits(got, want):
    assert (got.degree, got.exact, got.shape) == (want.degree, want.exact, want.shape)
    assert got.keys.tobytes() == want.keys.tobytes() and got.stack.tobytes() == want.stack.tobytes()


def odd_soul_realization():
    """A = 0.5 + sum_{k<=12} c_k i_k, B = C = D = 1 at N = 64: the odd soul squares to
    rounding residue only, so the support of A^n B changes from step to step."""
    ctx = AlgebraContext(generators=64)
    rng = np.random.default_rng(5)
    a = ctx.scalar(0.5)
    for k in range(1, 13):
        a = a + ctx.generator(k) * complex(rng.normal(), rng.normal())
    one = SuperMatrix.identity(ctx, 1)
    return Realization(SuperMatrix.from_scalar(a), one, one, one)


def bench_workloads():
    """bench/workloads.py, loaded from its path once (as module ``bench_workloads``)."""
    if "bench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules[spec.name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["bench_workloads"]


class TestToSeriesPlans:
    """to_series reuses a pair plan while the power's keys stay the same."""

    @pytest.mark.parametrize("generators", [6, 8, 64])
    @pytest.mark.parametrize("degree", [0, 1, 2, 6, 32])
    def test_bitwise_equal_to_mat_mul_loop(self, generators, degree):
        # at N = 64 the blocks are drawn on 8 generators and moved to slots 57..64:
        # souls on all 64 would fill in without bound over 32 powers
        ctx = AlgebraContext(generators=generators)
        drawn = AlgebraContext(generators=min(generators, 8))
        shift = np.uint64(generators - drawn.generators)
        rng = np.random.default_rng([generators, degree])
        for n in range(1, 5):
            r = random_realization(drawn, rng, n, 2, 1 + n % 2)
            r = Realization(*(SuperMatrix(ctx, m.keys << shift, m.stack) for m in (r.a, r.b, r.c, r.d)))
            assert_same_bits(to_series(r, degree), ref_to_series(r, degree))

    def test_zero_and_body_only_blocks(self, ctx, rng):
        r = random_realization(ctx, rng, 3, 2, 2)
        cases = [dataclasses.replace(r, b=SuperMatrix.zeros(ctx, 3, 2)),
                 dataclasses.replace(r, a=SuperMatrix.zeros(ctx, 3, 3)),
                 dataclasses.replace(r, a=SuperMatrix.from_body(ctx, r.a.body())),
                 dataclasses.replace(r, c=SuperMatrix.zeros(ctx, 2, 3))]
        for case in cases:
            for degree in (0, 1, 2, 6, 32):
                assert_same_bits(to_series(case, degree), ref_to_series(case, degree))

    def test_built_realizations(self, ctx, rng):
        r1 = random_realization(ctx, rng, 2, 2, 2)
        r2 = random_realization(ctx, rng, 3, 2, 2, invertible_d=True)
        built = [compose(r1, r2, mode) for mode in ("product", "sum", "concat_rows", "concat_cols")]
        built += [polynomial_realization([random_supermatrix(ctx, rng, 2, 2) for _ in range(3)]),
                  inverse_realization(r2)]
        for r in built:
            for degree in (1, 6, 32):
                assert_same_bits(to_series(r, degree), ref_to_series(r, degree))

    def test_support_changing_at_every_step(self):
        r = odd_soul_realization()
        want = ref_to_series(r, 32)
        for degree in range(5, 33):
            assert_same_bits(to_series(r, degree), SeriesMatrix(want.coeffs[:degree + 1], exact=False))

    def test_np_solve_theta_expands_on_few_plans(self, monkeypatch, tmp_path):
        # every seed-1 np solve theta of the benchmark keeps its power's keys after
        # the first product, so at most 2(N + 1) plans are built where mat_mul made 63
        wl = bench_workloads()
        kind = [k.name for k in wl.SCHUR_MIX.kinds].index("np_solve")
        real, calls = ga._disjoint_pairs, []
        monkeypatch.setattr(ga, "_disjoint_pairs", lambda *args: calls.append(args) or real(*args))
        limit = 2 * (wl.CTX8.generators + 1)
        for i in range(wl.SCHUR_POOL):
            data = wl.SCHUR_MIX.make_input(1, kind, i, tmp_path)["data"]
            c, a, j = data.output_matrix(), data.state_matrix(), data.signature()
            theta = build_theta(c, a, stein_solve(c, a, j), j)
            calls.clear()
            f = to_series(theta.realization, 32)
            assert f.degree == 32 and len(calls) <= limit, (i, len(calls))


class TestInverse:
    def test_constant_two(self, ctx):
        r = Realization.constant(SuperMatrix.from_body(ctx, [[2.0]]))
        inv = inverse_realization(r)
        f = to_series(inv, degree=3)
        assert f.coeffs[0][0, 0].body == pytest.approx(0.5)
        assert all(c.is_zero() for c in f.coeffs[1:])

    def test_one_minus_z_geometric(self, ctx):
        # 1 - z realized with A=0, B=1, C=-1, D=1; inverse is the geometric series
        one = ctx.one()
        r = Realization(
            a=SuperMatrix.zeros(ctx, 1, 1),
            b=SuperMatrix.from_scalar(one),
            c=SuperMatrix.from_scalar(-one),
            d=SuperMatrix.from_scalar(one),
        )
        inv = inverse_realization(r)
        f = to_series(inv, degree=6)
        for c in f.coeffs:
            assert c[0, 0].body == pytest.approx(1.0)

    def test_star_residual_random(self, ctx4, rng):
        ctx = ctx4
        for _ in range(5):
            r = random_realization(ctx, rng, 3, 2, 2, invertible_d=True)
            inv = inverse_realization(r)
            f = to_series(r, degree=12)
            g = to_series(inv, degree=12)
            eye = SeriesMatrix.identity(ctx, 2)
            assert series_dist(star_mul(f, g), eye) <= 1e-9 * max(1.0, f.norm1() * g.norm1())
            assert series_dist(star_mul(g, f), eye) <= 1e-9 * max(1.0, f.norm1() * g.norm1())

    def test_double_inverse_restores_series(self, ctx, rng):
        r = random_realization(ctx, rng, 2, 2, 2, invertible_d=True)
        rr = inverse_realization(inverse_realization(r))
        assert series_dist(to_series(r, 10), to_series(rr, 10)) <= 1e-9

    def test_singular_d(self, ctx):
        r = Realization.constant(SuperMatrix.zeros(ctx, 2, 2))
        with pytest.raises(DSingular):
            inverse_realization(r)

    def test_non_square_d_is_a_shape_error(self):
        ctx = AlgebraContext(generators=2)
        r = Realization(
            a=SuperMatrix.from_body(ctx, [[0.5]]),
            b=SuperMatrix.from_body(ctx, [[1.0, 0.0]]),
            c=SuperMatrix.from_body(ctx, [[1.0]]),
            d=SuperMatrix.from_body(ctx, [[1.0, 0.0]]),
        )
        with pytest.raises(ShapeMismatch):
            inverse_realization(r)


class TestCompose:
    def test_product_with_constant_identity(self, ctx, rng):
        r = random_realization(ctx, rng, 2, 2, 2)
        composed = compose(r, Realization.constant(SuperMatrix.identity(ctx, 2)), "product")
        assert series_dist(to_series(composed, 8), to_series(r, 8)) <= 1e-10

    def test_sum_with_zero(self, ctx, rng):
        r = random_realization(ctx, rng, 2, 2, 2)
        composed = compose(r, Realization.constant(SuperMatrix.zeros(ctx, 2, 2)), "sum")
        assert series_dist(to_series(composed, 8), to_series(r, 8)) <= 1e-10

    @pytest.mark.parametrize("mode", ["product", "sum", "concat_rows", "concat_cols"])
    def test_modes_match_series_ops(self, ctx4, rng, mode):
        ctx = ctx4
        r1 = random_realization(ctx, rng, 2, 2, 2)
        r2 = random_realization(ctx, rng, 3, 2, 2)
        f1 = to_series(r1, 10)
        f2 = to_series(r2, 10)
        got = to_series(compose(r1, r2, mode), 10)
        if mode == "product":
            expected = star_mul(f1, f2)
        elif mode == "sum":
            expected = f1 + f2
        elif mode == "concat_cols":
            expected = SeriesMatrix(tuple(
                SuperMatrix.block([[a, b]]) for a, b in zip(f1.coeffs, f2.coeffs)))
        else:
            expected = SeriesMatrix(tuple(
                SuperMatrix.block([[a], [b]]) for a, b in zip(f1.coeffs, f2.coeffs)))
        scale = max(1.0, f1.norm1() * f2.norm1())
        assert series_dist(got, expected) <= 1e-10 * scale


class TestPolynomial:
    def test_constant(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 2, 2)
        f = to_series(polynomial_realization([m]), 4)
        assert (f.coeffs[0] - m).norm1() == 0
        assert all(c.is_zero() for c in f.coeffs[1:])

    def test_linear(self, ctx, rng):
        m0 = random_supermatrix(ctx, rng, 2, 2)
        m1 = random_supermatrix(ctx, rng, 2, 2)
        f = to_series(polynomial_realization([m0, m1]), 4)
        assert (f.coeffs[0] - m0).norm1() == 0
        assert (f.coeffs[1] - m1).norm1() <= 1e-12 * max(1.0, m1.norm1())
        assert all(c.norm1() <= 1e-12 for c in f.coeffs[2:])

    def test_cubic_exact_match(self, ctx, rng):
        ms = [random_supermatrix(ctx, rng, 2, 2) for _ in range(4)]
        f = to_series(polynomial_realization(ms), 6)
        for n, m in enumerate(ms):
            assert (f.coeffs[n] - m).norm1() <= 1e-12 * max(1.0, m.norm1())
        assert all(c.norm1() <= 1e-12 for c in f.coeffs[4:])


class TestRankTests:
    def test_identity_observable(self, ctx):
        assert is_observable(SuperMatrix.identity(ctx, 3), SuperMatrix.zeros(ctx, 3, 3))

    def test_zero_not_observable(self, ctx):
        assert not is_observable(SuperMatrix.zeros(ctx, 2, 2), SuperMatrix.zeros(ctx, 2, 2))

    def test_classical_rank_oracle(self, ctx, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a_body = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            c_body = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
            a = SuperMatrix.from_body(ctx, a_body)
            c = SuperMatrix.from_body(ctx, c_body)
            stacked = np.vstack([c_body @ np.linalg.matrix_power(a_body, k) for k in range(n)])
            assert is_observable(c, a) == (np.linalg.matrix_rank(stacked) == n)
            b = SuperMatrix.from_body(ctx, c_body.conj().T)
            ctrl = np.hstack([np.linalg.matrix_power(a_body, k) @ c_body.conj().T for k in range(n)])
            assert is_controllable(a, b) == (np.linalg.matrix_rank(ctrl) == n)

    def test_minimality_flag(self, ctx, rng):
        r = random_realization(ctx, rng, 2, 2, 2)
        assert is_minimal(r) == (is_observable(r.c, r.a) and is_controllable(r.a, r.b))


class TestShiftSpan:
    def test_geometric_scalar(self, ctx):
        coeffs = [SuperMatrix.from_body(ctx, [[0.5**n]]) for n in range(12)]
        f = SeriesMatrix(tuple(coeffs))
        assert backward_shift_span_dimension(f, 4) == 1

    def test_polynomial_bounded_by_degree(self, ctx, rng):
        k = 3
        coeffs = [random_supermatrix(ctx, rng, 1, 1) for _ in range(k + 1)]
        coeffs += [SuperMatrix.zeros(ctx, 1, 1)] * 8
        f = SeriesMatrix(tuple(coeffs))
        assert backward_shift_span_dimension(f, 5) <= k + 1

    def test_bounded_by_minimal_state_dimension(self, ctx, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            r = random_realization(ctx, rng, n, 2, 2, scale=0.0)
            f = to_series(r, degree=12)
            assert backward_shift_span_dimension(f, 4) <= n + 2  # +constant-term defect


class TestJUnitary:
    def test_constant_j_unitary_body(self, ctx, rng):
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        # hyperbolic rotation: U diag(1,-1) U* = diag(1,-1)
        t = 0.7
        u_body = np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])
        r = Realization.constant(SuperMatrix.from_body(ctx, u_body))
        assert is_J_unitary(r, j)

    def test_diagonal_scaling_fails(self, ctx, rng):
        j = SuperMatrix.identity(ctx, 2)
        r = Realization.constant(SuperMatrix.from_body(ctx, np.diag([2.0, 1.0])))
        assert not is_J_unitary(r, j)

    def test_invalid_j(self, ctx, rng):
        r = Realization.constant(SuperMatrix.identity(ctx, 2))
        with pytest.raises(JInvalid):
            is_J_unitary(r, SuperMatrix.from_body(ctx, np.diag([2.0, 1.0])))

    @staticmethod
    def np_theta(ctx, nodes):
        """Theta of a Nevanlinna-Pick problem with soulful nodes and values s(z) = c0 + c1 z."""
        rng = np.random.default_rng(nodes)
        c0 = ctx.scalar(0.3 - 0.2j) + random_soul(ctx, rng, terms=2, scale=0.1)
        c1 = ctx.scalar(0.25j) + random_soul(ctx, rng, terms=2, scale=0.1)
        zs = [ctx.scalar(0.4 * np.exp(2j * np.pi * (k + 0.3) / nodes)) + random_soul(
            ctx, rng, parity="even", terms=2, scale=0.05) for k in range(nodes)]
        data = InterpolationData(tuple(zs), tuple(c0 + c1 * z for z in zs))
        j = data.signature()
        return build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), j).realization, j

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4])
    def test_theta_products_and_extensions(self, ctx, nodes):
        # Theta, Theta·Theta, and Theta with one extra state that B cannot reach or C
        # cannot see: the same function, so J-unitary at every realization
        r, j = self.np_theta(ctx, nodes)
        n, zeros = r.state_dim, SuperMatrix.zeros
        a = SuperMatrix.block([[r.a, zeros(ctx, n, 1)], [zeros(ctx, 1, n), SuperMatrix.from_body(ctx, [[0.3]])]])
        uncontrollable = Realization(a, SuperMatrix.block([[r.b], [zeros(ctx, 1, 2)]]),
                                     SuperMatrix.block([[r.c, SuperMatrix.from_body(ctx, [[1.0], [0.5]])]]), r.d)
        unobservable = Realization(a, SuperMatrix.block([[r.b], [SuperMatrix.from_body(ctx, [[1.0, 0.5]])]]),
                                   SuperMatrix.block([[r.c, zeros(ctx, 2, 1)]]), r.d)
        for case in (r, compose(r, r, "product"), uncontrollable, unobservable):
            assert is_J_unitary(case, j)

    @pytest.mark.parametrize("nodes", [1, 2, 3, 4])
    def test_theta_with_scaled_d_fails(self, ctx, nodes):
        r, j = self.np_theta(ctx, nodes)
        assert not is_J_unitary(dataclasses.replace(r, d=r.d * (1 + 1e-6)), j)

    @pytest.mark.parametrize("nodes", [2, 4])
    def test_even_soul_defect_rejected_at_the_reduced_point_count(self, ctx, nodes, monkeypatch):
        # A's souls are even, so no product of more than floor(k/2) of them survives, and the
        # check evaluates 2n(floor(k/2) + 1) + 1 points instead of 2n(k + 1) + 1
        r, j = self.np_theta(ctx, nodes)
        souls = r.a.keys[r.a.keys != 0]
        grades = np.bitwise_count(souls)
        assert grades.min() == 2 and not (grades % 2).any()
        k = int(np.bitwise_or.reduce(souls)).bit_count()
        points = []
        evaluate = evaluate_rational
        monkeypatch.setattr("grasschur.realization.evaluate_rational", lambda *args: points.append(1) or evaluate(*args))
        assert is_J_unitary(r, j)
        assert len(points) == 2 * r.state_dim * (k // 2 + 1) + 1 < 2 * r.state_dim * (k + 1) + 1
        # a defect in the souls alone, on a key of lowest grade among A's generators: the body
        # stays J-unitary, and neither k nor the lowest grade moves
        key = int(souls[grades == 2][0])

        def bump(rows, cols):
            return SuperMatrix.from_rows([[ctx.from_terms({key: 1e-3}) if (row, col) == (0, 0) else ctx.zero()
                                           for col in range(cols)] for row in range(rows)])

        n = r.state_dim
        for case in (dataclasses.replace(r, d=r.d + bump(2, 2)), dataclasses.replace(r, a=r.a + bump(n, n))):
            assert not is_J_unitary(case, j)

    def test_sampling_options_are_gone(self, ctx, rng):
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        with pytest.raises(TypeError):
            is_J_unitary(Realization.constant(j), j, rng=rng)


class TestRationalEvaluation:
    def test_constant(self, ctx, rng):
        d = random_supermatrix(ctx, rng, 2, 2)
        r = Realization.constant(d)
        assert (evaluate_rational(r, ctx.scalar(0.3)) - d).norm1() == 0

    def test_matches_series_for_small_body(self, ctx, rng):
        r = random_realization(ctx, rng, 2, 2, 2, spectral=0.4)
        z = ctx.scalar(0.3) + random_soul(ctx, rng, parity="even", scale=0.05, terms=2)
        exact = evaluate_rational(r, z)
        approx = evaluate(to_series(r, degree=32), z)
        assert (exact - approx).norm1() <= 1e-8 * max(1.0, exact.norm1())

    def test_matches_resolvent_formula_at_central_points(self, ctx, rng):
        # the resolvent formula D + zC(I - zA)^{-1}B, at |z_B| = 0.5 and at the
        # |z_B| = 1 points that is_J_unitary samples
        r = random_realization(ctx, rng, 3, 2, 2, spectral=0.6)
        eye = SuperMatrix.identity(ctx, r.state_dim)
        for modulus in (0.5, 1.0, 1.0):
            z = random_even_unit(ctx, rng, body_modulus=modulus, soul_scale=0.1)
            want = r.d + mat_mul(r.c, mat_mul(mat_invert(eye - r.a.scale_left(z)), r.b)).scale_left(z)
            assert (evaluate_rational(r, z) - want).norm1() <= 1e-12 * max(1.0, want.norm1())

    def test_odd_argument_left_value(self, ctx, rng):
        # off the centre the value is the left sum sum_n z^n f_n, with z^n ordered first
        r = random_realization(ctx, rng, 2, 2, 2, spectral=0.4)
        z = ctx.generator(1) * 0.2 + ctx.scalar(0.5) + random_soul(ctx, rng, parity="odd", scale=0.05, terms=2)
        exact = evaluate_rational(r, z)
        approx = evaluate(to_series(r, degree=32), z)
        assert (exact - approx).norm1() <= 1e-8 * max(1.0, exact.norm1())
        right = evaluate_right(to_series(r, degree=32), z)
        assert (exact - right).norm1() > 1e-6
