"""Theta functions, Nevanlinna-Pick, the Schur algorithm, Blaschke and Brune."""
import dataclasses

import numpy as np
import pytest

from grasschur import (AlgebraContext, SuperMatrix, Supernumber, adjoint, classify, dagger, invert,
                       is_supernonnegative, kth_root, mat_invert, mat_mul, mul)
from grasschur import schur
from grasschur.errors import (
    DomainViolation,
    EtaNotContractive,
    GrasschurError,
    HNotNegative,
    ISubASingular,
    IsotropyViolated,
    NodeOutsideSuperdisk,
    NotConvergent,
    NotSchur,
    NotUnimodular,
    RhoNotContractive,
    SectionResidual,
    ShapeMismatch,
    StepSingular,
    SteinViolated,
)
from grasschur.matrix import _self_adjoint
from grasschur.oracle import classical_np_solution, classical_pick_matrix, classical_schur
from grasschur.realization import Realization
from grasschur.sampling import random_even_unit, random_soul, random_supermatrix, random_supernumber
from grasschur.schur import (
    BlaschkeFactor,
    InterpolationData,
    ThetaFunction,
    adjoint_state_evaluation,
    blaschke_factor,
    brune_section,
    build_theta,
    colligation_residuals,
    geometric_sandwich_sum,
    h_theta_kernel,
    is_schur_grassmann,
    kernel_decomposition_residual,
    kernel_eval,
    kernel_identity_residual,
    kyp_check,
    lft_apply,
    module_interpolate,
    np_interpolation_check,
    np_node_residuals,
    np_solve,
    pick_matrix,
    schur_algorithm,
    schur_section,
    schur_step,
    section_step,
    stein_residual,
    stein_solve,
)
from grasschur.series import SeriesMatrix, backward_shift, evaluate, hermitian_form, star_inverse, star_mul
from grasschur.toeplitz import ToeplitzSpec, extend


def degree_context(degree):
    """The ``ctx`` fixture's algebra with series cut at ``degree``."""
    return AlgebraContext(generators=8, max_series_degree=degree)


def scalar_series(ctx, bodies, exact=False):
    return SeriesMatrix(tuple(SuperMatrix.from_body(ctx, [[b]]) for b in bodies), exact=exact)


def series_dist(f, g):
    through = min(f.degree, g.degree)
    return sum((f.coeffs[n] - g.coeffs[n]).norm1() for n in range(through + 1))


def random_stein_data(ctx, rng, q=2, p=2, spectral=0.5, soul_scale=0.15):
    """Stein-consistent (C, A, P, J) with mixed-signature J."""
    a_body = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
    a_body *= spectral / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
    a = SuperMatrix.from_body(ctx, a_body) + random_supermatrix(
        ctx, rng, q, q, body=0.0, scale=soul_scale, terms=2, max_grade=2)
    c = random_supermatrix(ctx, rng, p, q, scale=0.5, terms=2, max_grade=2)
    signs = [1.0] * (p // 2 + p % 2) + [-1.0] * (p // 2)
    j = SuperMatrix.from_body(ctx, np.diag(signs))
    pmat = stein_solve(c, a, j)
    return c, a, pmat, j


def make_np_data(ctx, rng, n_nodes, node_radius=0.45, souls=True):
    """Interpolation data sampled from a strictly contractive generator."""
    c0 = ctx.scalar(complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3)))
    c1 = ctx.scalar(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
    if souls:
        c0 = c0 + random_soul(ctx, rng, terms=2, scale=0.1)
        c1 = c1 + random_soul(ctx, rng, terms=2, scale=0.1)
    generator = SeriesMatrix.from_coeffs(
        [SuperMatrix.from_scalar(c0), SuperMatrix.from_scalar(c1)], exact=True)
    nodes, values = [], []
    for k in range(n_nodes):
        angle = 2 * np.pi * (k + rng.uniform(0.1, 0.9)) / n_nodes
        body = rng.uniform(0.2, node_radius) * complex(np.cos(angle), np.sin(angle))
        z = ctx.scalar(body)
        if souls:
            z = z + random_soul(ctx, rng, terms=2, scale=0.05)
        nodes.append(z)
        values.append(evaluate(generator, z)[0, 0])
    return InterpolationData(tuple(nodes), tuple(values))


def toeplitz_body(s, depth):
    """The body of L_depth, the block lower-triangular Toeplitz matrix of s_0..s_depth."""
    (p, q), bodies = s.shape, [s.coefficient(n).body() for n in range(depth + 1)]
    l = np.zeros(((depth + 1) * p, (depth + 1) * q), dtype=complex)
    for i in range(depth + 1):
        for j in range(i + 1):
            l[i * p:(i + 1) * p, j * q:(j + 1) * q] = bodies[i - j]
    return l


def read_depth(s):
    """The degree schur_algorithm reads: s's own when truncated, max_series_degree when
    exact of degree >= 1, 0 for an exact constant."""
    return s.context.max_series_degree if s.exact and s.degree else s.degree


def ref_is_schur_grassmann(s):
    """The loop over every leading block: I - L_n* L_n supernonnegative for n = 1..depth+1."""
    depth = read_depth(s)
    (p, q), l = s.shape, toeplitz_body(s, depth)
    for n in range(1, depth + 2):
        top = l[:n * p, :n * q]
        if not is_supernonnegative(SuperMatrix.from_body(s.context, np.eye(n * q) - top.conj().T @ top)):
            return False
    return True


class TestIsSchurGrassmann:
    def test_one_test_at_full_depth_matches_every_leading_block(self, ctx, rng):
        cases = [scalar_series(ctx, bodies, exact) for bodies in ([0.5] + [0.0] * 4, [2.0] + [0.0] * 4,
                 [0.6, 0.3, 0.05], [0.8, 0.7], [1.0], [1.0, 0.0, 0.0], [0.6, 0.8], [0.5, 0.2], [0.6] + [0.0] * 11 + [0.6])
                 for exact in (False, True)]
        for trial in range(400):
            n, degree = int(rng.integers(1, 3)), int(rng.integers(0, 12))
            s = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, 0.7 ** k * rng.normal(size=(n, n, 2)) @ [1, 1j])
                                          for k in range(degree + 1)], exact=bool(trial % 4 >= 2))
            if trial % 2:  # scaled to ‖L_depth‖ = 1 + eps, where the verdict turns
                scale = (1 + rng.choice([-1e-8, -1e-12, 0.0, 1e-12, 1e-8])) / np.linalg.norm(
                    toeplitz_body(s, read_depth(s)), 2)
            else:
                scale = rng.uniform(0.1, 1.2) / n
            cases.append(s * scale)
        verdicts = [(is_schur_grassmann(s), ref_is_schur_grassmann(s)) for s in cases]
        assert all(got == want for got, want in verdicts)
        assert 0 < sum(got for got, _ in verdicts) < len(verdicts)

    def test_constant_half(self, ctx):
        assert is_schur_grassmann(scalar_series(ctx, [0.5] + [0.0] * 4))

    def test_constant_two(self, ctx):
        assert not is_schur_grassmann(scalar_series(ctx, [2.0] + [0.0] * 4))

    def test_soul_perturbation_keeps_verdict(self, ctx, rng):
        coeffs = [
            SuperMatrix.from_scalar(ctx.scalar(0.5) + random_soul(ctx, rng, scale=0.4)),
            SuperMatrix.from_scalar(random_soul(ctx, rng, scale=0.4)),
        ]
        assert is_schur_grassmann(SeriesMatrix.from_coeffs(coeffs, exact=True))

    def test_tight_contraction_with_tail(self, ctx):
        assert is_schur_grassmann(scalar_series(ctx, [0.6, 0.3, 0.05]))
        assert not is_schur_grassmann(scalar_series(ctx, [0.8, 0.7]))

    @pytest.mark.parametrize("bodies, exact", [([0.6] + [0.0] * 4 + [0.6] + [0.0] * 11, False),
                                               ([0.6] + [0.0] * 11 + [0.6], True)], ids=["z5-truncated", "z12-exact"])
    def test_rejects_a_boundary_excess_past_s8(self, ctx, bodies, exact):
        # |s(1)| = 1.2, but I - L_8* L_8 is positive: only the coefficients read past s_8 show it
        s = scalar_series(ctx, bodies, exact)
        assert np.linalg.norm(toeplitz_body(s, 8), 2) < 1
        assert not is_schur_grassmann(s)
        with pytest.raises(GrasschurError, match="not a Schur-Grassmann function"):
            schur_algorithm(s, 20)


class TestKYP:
    def test_constant_half(self, ctx):
        r = Realization(
            a=SuperMatrix.zeros(ctx, 1, 1), b=SuperMatrix.zeros(ctx, 1, 1),
            c=SuperMatrix.zeros(ctx, 1, 1), d=SuperMatrix.from_body(ctx, [[0.5]]))
        assert kyp_check(r, SuperMatrix.from_body(ctx, [[-1.0]]))

    def test_shift_function(self, ctx):
        # the realization of z: A=0, B=1, C=1, D=0
        one = SuperMatrix.identity(ctx, 1)
        r = Realization(a=SuperMatrix.zeros(ctx, 1, 1), b=one, c=one, d=SuperMatrix.zeros(ctx, 1, 1))
        assert kyp_check(r, SuperMatrix.from_body(ctx, [[-1.0]]))

    def test_expansion_fails(self, ctx):
        r = Realization(
            a=SuperMatrix.zeros(ctx, 1, 1), b=SuperMatrix.zeros(ctx, 1, 1),
            c=SuperMatrix.zeros(ctx, 1, 1), d=SuperMatrix.from_body(ctx, [[2.0]]))
        assert not kyp_check(r, SuperMatrix.from_body(ctx, [[-1.0]]))

    def test_h_validation(self, ctx):
        r = Realization.constant(SuperMatrix.from_body(ctx, [[0.5]]))
        with pytest.raises(HNotNegative):
            kyp_check(r, SuperMatrix.from_body(ctx, [[1.0]]))


class TestStein:
    def test_zero_state(self, ctx, rng):
        c = random_supermatrix(ctx, rng, 2, 2, terms=2)
        a = SuperMatrix.zeros(ctx, 2, 2)
        j = SuperMatrix.identity(ctx, 2)
        p = stein_solve(c, a, j)
        assert (p - mat_mul(adjoint(c), c)).norm1() <= 1e-10 * max(1.0, p.norm1())

    def test_scalar_geometric(self, ctx):
        c = SuperMatrix.from_body(ctx, [[1.0]])
        a = SuperMatrix.from_body(ctx, [[0.5]])
        p = stein_solve(c, a, SuperMatrix.identity(ctx, 1))
        assert p[0, 0].body == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_two_summation_orders_agree(self, ctx, rng):
        c, a, p, j = random_stein_data(ctx, rng)
        # direct term-by-term summation of sum (A*)^n C*JC A^n
        cjc = mat_mul(adjoint(c), mat_mul(j, c))
        total = cjc
        left = adjoint(a)
        term = cjc
        for _ in range(200):
            term = mat_mul(left, mat_mul(term, a))
            total = total + term
            if term.norm1() < 1e-14:
                break
        assert (p - total).norm1() <= 1e-8 * max(1.0, p.norm1())
        assert stein_residual(p, c, a, j) <= 1e-9 * max(1.0, p.norm1())
        assert (p - adjoint(p)).norm1() <= 1e-10 * max(1.0, p.norm1())

    def test_spectral_radius_near_one_is_exact(self, ctx, rng):
        c, a, p, j = random_stein_data(ctx, rng, spectral=0.99)
        assert stein_residual(p, c, a, j) <= 1e-14 * p.norm1()

    def test_self_adjoint_near_unit_radius(self, ctx):
        # non-normal A_B at rho = 0.9999: the unsymmetrized body solve left
        # P - P* above build_theta's 1e-12 gate on several of these inputs
        rng = np.random.default_rng(7)
        for _ in range(8):
            c, a, p, j = random_stein_data(ctx, rng, spectral=0.9999)
            build_theta(c, a, p, j)
            assert (p - adjoint(p)).norm1() == 0.0
            assert stein_residual(p, c, a, j) <= 1e-12 * p.norm1()

    def test_spectral_radius_one_not_convergent(self, ctx, rng):
        c = random_supermatrix(ctx, rng, 2, 2, terms=2)
        a = SuperMatrix.diagonal([ctx.scalar(1.0) + ctx.generator(1), ctx.scalar(0.3)])
        with pytest.raises(NotConvergent):
            stein_solve(c, a, SuperMatrix.identity(ctx, 2))


class TestBuildTheta:
    def test_zero_c_gives_identity(self):
        # C = 0 forces P = A*PA; unimodular a keeps P invertible
        ctx = degree_context(6)
        c = SuperMatrix.zeros(ctx, 2, 1)
        a = SuperMatrix.from_body(ctx, [[1j]])
        p = SuperMatrix.identity(ctx, 1)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        theta = build_theta(c, a, p, j)
        assert (theta.series.coeffs[0] - SuperMatrix.identity(ctx, 2)).norm1() <= 1e-12
        assert all(co.is_zero() for co in theta.series.coeffs[1:])

    def test_kernel_identity_random_data(self, ctx, rng):
        for _ in range(3):
            c, a, p, j = random_stein_data(ctx, rng)
            theta = build_theta(c, a, p, j)
            for _ in range(4):
                z = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
                w = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
                assert kernel_identity_residual(theta, z, w) <= 1e-8 * max(1.0, p.norm1() ** 2)

    @pytest.mark.parametrize("q,p,spectral", [(1, 3, 0.9), (3, 2, 0.7), (2, 3, 0.95)])
    def test_certified_data_pass_sampled_identity(self, q, p, spectral, ctx, rng):
        c, a, pmat, j = random_stein_data(ctx, rng, q=q, p=p, spectral=spectral)
        theta = build_theta(c, a, pmat, j)
        assert max(colligation_residuals(theta.realization, pmat, j)) <= ctx.tol_eq
        for _ in range(4):
            z = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
            w = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
            assert kernel_identity_residual(theta, z, w) <= 1e-8 * max(1.0, pmat.norm1() ** 2)

    def test_perturbed_normalization_flagged(self, ctx, rng, monkeypatch):
        # every entry of K moved by 1e-6 of its 1-norm: the Stein residual cannot
        # see K, so only the colligation blocks and the kernel identity can
        c, a, pmat, j = random_stein_data(ctx, rng)
        theta = build_theta(c, a, pmat, j)
        shift = SuperMatrix.from_body(ctx, np.full(theta.k.shape, 1e-6 * theta.k.norm1()))
        realize = schur._theta_realization
        bad = dataclasses.replace(theta, realization=realize(c, a, theta.k + shift), k=theta.k + shift)
        off_diagonal, corner = colligation_residuals(bad.realization, pmat, j)
        assert off_diagonal > ctx.tol_eq and corner > ctx.tol_eq
        z = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
        w = random_even_unit(ctx, rng, body_modulus=0.4, soul_scale=0.05)
        assert kernel_identity_residual(bad, z, w) > ctx.tol_eq * max(1.0, pmat.norm1() ** 2)
        assert kernel_identity_residual(theta, z, w) <= ctx.tol_eq * max(1.0, pmat.norm1() ** 2)
        monkeypatch.setattr(schur, "_theta_realization", lambda c, a, k: realize(c, a, k + shift))
        with pytest.raises(SteinViolated, match="colligation"):
            build_theta(c, a, pmat, j)

    def test_stein_violation_rejected(self, ctx, rng):
        c, a, p, j = random_stein_data(ctx, rng)
        bad = p + SuperMatrix.identity(ctx, p.rows)
        with pytest.raises(SteinViolated):
            build_theta(c, a, bad, j)

    def test_singular_i_sub_a_rejected(self, ctx):
        # A = I makes I - A vanish; the data are otherwise valid (P - A*PA = C*JC = 0)
        c = SuperMatrix.from_body(ctx, [[1.0], [1.0]])
        a = SuperMatrix.identity(ctx, 1)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        with pytest.raises(ISubASingular):
            build_theta(c, a, SuperMatrix.identity(ctx, 1), j)

    def test_normalization_is_the_series_k(self, rng):
        ctx = degree_context(4)
        c, a, p, j = random_stein_data(ctx, rng)
        theta = build_theta(c, a, p, j)
        eye = SuperMatrix.identity(ctx, a.rows)
        k = mat_mul(mat_invert(p), mat_mul(mat_invert(adjoint(eye - a)), mat_mul(adjoint(c), j)))
        assert theta.normalization() == k
        assert theta.series.coeffs[0] == SuperMatrix.identity(ctx, c.rows) - mat_mul(c, k)

    def test_series_matches_rational_evaluation(self, ctx, rng):
        c, a, p, j = random_stein_data(ctx, rng)
        theta = build_theta(c, a, p, j)
        lam = ctx.scalar(0.3 + 0.2j)
        via_series = evaluate(theta.series, lam)
        exact = theta.eval_at(lam)
        assert (via_series - exact).norm1() <= 1e-7 * max(1.0, exact.norm1())

    def test_odd_soul_argument_matches_series(self, ctx, rng):
        # the left value is exact off the centre too: sum_n z^n Theta_n with z^n ordered first
        c, a, p, j = random_stein_data(ctx, rng)
        theta = build_theta(c, a, p, j)
        z = ctx.scalar(0.3 - 0.1j) + random_soul(ctx, rng, terms=2, scale=0.05, parity="odd")
        assert not classify(z).is_even
        exact = theta.eval_at(z)
        assert (evaluate(theta.series, z) - exact).norm1() <= 1e-7 * max(1.0, exact.norm1())


class TestPickMatrix:
    def test_single_node_at_zero(self, ctx, rng):
        s = random_supernumber(ctx, rng, scale=0.3, body=0.25)
        data = InterpolationData((ctx.zero(),), (s,))
        p = pick_matrix(data)
        expected = ctx.one() - mul(s, dagger(s))
        assert (p[0, 0] - expected).norm1() <= 1e-10

    def test_classical_bodies(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=False)
        p = pick_matrix(data)
        classical = classical_pick_matrix(
            [z.body for z in data.nodes], [s.body for s in data.values])
        assert np.allclose(p.body(), classical, atol=1e-9)

    def test_stein_cross_check_with_souls(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=True)
        p = pick_matrix(data)
        res = stein_residual(p, data.output_matrix(), data.state_matrix(), data.signature())
        assert res <= 1e-8 * max(1.0, p.norm1())

    def test_equals_entrywise_sandwich_sums(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=True)
        p = pick_matrix(data)
        entrywise = SuperMatrix.from_rows([
            [geometric_sandwich_sum(zj, ctx.one() - mul(sj, dagger(sk)), dagger(zk))
             for zk, sk in zip(data.nodes, data.values)]
            for zj, sj in zip(data.nodes, data.values)
        ])
        assert (p - entrywise).norm1() <= 1e-12 * max(1.0, p.norm1())

    def test_node_outside_superdisk(self, ctx):
        with pytest.raises(NodeOutsideSuperdisk):
            InterpolationData((ctx.scalar(1.0),), (ctx.scalar(0.0),))


class TestNPInterpolationCheck:
    def test_single_node_at_zero(self, ctx, rng):
        s = ctx.scalar(0.3) + random_soul(ctx, rng, scale=0.1)
        data = InterpolationData((ctx.zero(),), (s,))
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        residuals = np_node_residuals(data, theta)
        assert max(residuals) <= 1e-10

    def test_random_superdisk_data(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=True)
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        assert np_interpolation_check(data, theta)
        assert max(np_node_residuals(data, theta)) <= 1e-8

    def test_perturbed_value_fails(self, ctx, rng):
        data = make_np_data(ctx, rng, 2, souls=True)
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        wrong = InterpolationData(data.nodes, (data.values[0] + ctx.scalar(0.25), data.values[1]))
        assert max(np_node_residuals(wrong, theta)) > 1e-4


# -- block formulas against their entrywise references -------------------------


def ref_np_node_residuals(data, theta):
    """Node residuals with each Pick row built entry by entry from scalar sandwich sums."""
    ctx = data.context
    residuals = []
    for z, s in zip(data.nodes, data.values):
        row = SuperMatrix.row([geometric_sandwich_sum(z, ctx.one() - mul(s, dagger(sm)), dagger(zm))
                               for zm, sm in zip(data.nodes, data.values)])
        value = SuperMatrix.row([ctx.one(), -s]) - mat_mul(row, theta.normalization()).scale_left(ctx.one() - z)
        residuals.append(value.norm1())
    return residuals


def ref_schur_section(rho):
    """The section's two coefficients from eight scalar products."""
    ctx = rho.context
    one = ctx.one()
    g = invert(one - mul(rho, dagger(rho)))
    rho_dag = dagger(rho)
    constant = SuperMatrix.from_rows([[one - g, mul(g, rho)],
                                      [-mul(rho_dag, g), one + mul(rho_dag, mul(g, rho))]])
    linear = SuperMatrix.from_rows([[g, -mul(g, rho)], [mul(rho_dag, g), -mul(rho_dag, mul(g, rho))]])
    return SeriesMatrix((constant, linear), exact=True)


def block_test_soul(ctx, rng, scale):
    """At N = 8 a soul on all 255 monomials; at N = 64 two odd monomials, one holding generator 64
    (two odd parts, so rho and g = (1 - rho rho†)^{-1} need not commute)."""
    if ctx.generators == 8:
        return Supernumber(ctx, {k: scale * complex(*rng.normal(size=2)) for k in range(1, 256)})
    first, second, third = sorted(rng.choice(np.arange(1, 64), size=3, replace=False).tolist())
    return (ctx.basis((first,)) * (scale * complex(*rng.normal(size=2)))
            + ctx.basis((second, third, 64)) * (scale * complex(*rng.normal(size=2))))


class TestBlockFormulasMatchEntrywise:
    @pytest.mark.parametrize("generators", [8, 64])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_np_node_residuals(self, rng, generators, n):
        ctx = AlgebraContext(generators=generators)
        bodies = make_np_data(ctx, rng, n, souls=False)
        data = InterpolationData(tuple(z + block_test_soul(ctx, rng, 0.02) for z in bodies.nodes),
                                 tuple(s + block_test_soul(ctx, rng, 0.02) for s in bodies.values))
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        wrong = InterpolationData(data.nodes, (data.values[0] + ctx.scalar(0.25),) + data.values[1:])
        for d in (data, wrong):
            got, want = np_node_residuals(d, theta), ref_np_node_residuals(d, theta)
            assert np.allclose(got, want, rtol=0, atol=1e-12 * max(1.0, max(want)))
        assert max(want) > 1e-2  # the perturbed node's residual is compared, not only the zeros

    @pytest.mark.parametrize("generators", [8, 64])
    def test_schur_section(self, rng, generators):
        ctx = AlgebraContext(generators=generators)
        rho = ctx.scalar(0.4 + 0.2j) + block_test_soul(ctx, rng, 0.05)
        got, want = schur_section(rho), ref_schur_section(rho)
        for g, w in zip(got.coeffs, want.coeffs):
            assert (g - w).norm1() <= 1e-12 * max(1.0, w.norm1())


class TestLFT:
    def test_identity_theta(self, ctx, rng):
        sigma = scalar_series(ctx, [0.4, 0.2, 0.1])
        eye = SeriesMatrix.identity(ctx, 2)
        got = lft_apply(eye, sigma)
        assert series_dist(got, sigma) <= 1e-12

    def test_zero_sigma(self, rng):
        ctx = degree_context(10)
        data = make_np_data(ctx, rng, 2)
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        zero = SeriesMatrix.zero(ctx, 1, 1)
        got = lft_apply(theta.series, zero)
        b = theta.series.block(0, 1, 1, 2)
        d = theta.series.block(1, 2, 1, 2)
        from grasschur.series import star_inverse

        assert series_dist(got, star_mul(b, star_inverse(d))) <= 1e-10

    def test_schur_in_schur_out(self, rng):
        ctx = degree_context(10)
        data = make_np_data(ctx, rng, 2)
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        sigma = scalar_series(ctx, [0.5, 0.2])
        assert is_schur_grassmann(sigma)
        out = lft_apply(theta.series, sigma)
        assert is_schur_grassmann(out)


class TestNPSolve:
    def test_rejects_non_schur_sigma(self, ctx, rng):
        data = make_np_data(ctx, rng, 2)
        with pytest.raises(NotSchur):
            np_solve(data, scalar_series(ctx, [2.0, 0.0]))

    def test_denominator_singularity_detected(self, ctx):
        from grasschur.errors import DenominatorSingular

        # force d + c*sigma to vanish at order zero: theta = [[1,0],[0,0]]-style block
        bad = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[1.0, 0.0], [0.0, 0.0]])], exact=True)
        with pytest.raises(DenominatorSingular):
            lft_apply(bad, SeriesMatrix.zero(ctx, 1, 1))

    def test_central_solution_interpolates(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=True)
        solution = np_solve(data)
        assert max(solution.node_residuals) <= 1e-8
        assert np_interpolation_check(data, solution.theta)

    def test_classical_body_agreement(self, ctx, rng):
        data = make_np_data(ctx, rng, 3, souls=False)
        solution = np_solve(data)
        oracle, _, pick_cl = classical_np_solution(
            [z.body for z in data.nodes], [s.body for s in data.values])
        assert np.allclose(solution.pick.body(), pick_cl, atol=1e-9)
        for lam in (0.1 + 0.2j, -0.25, 0.3j):
            got = evaluate(solution.series, ctx.scalar(lam))[0, 0].body
            assert got == pytest.approx(oracle(lam), abs=1e-9)

    def test_unimodular_constant_sigma(self, ctx, rng):
        data = make_np_data(ctx, rng, 2, souls=True)
        sigma = SeriesMatrix.constant(SuperMatrix.from_body(ctx, [[np.exp(0.7j)]]))
        solution = np_solve(data, sigma)
        assert max(solution.node_residuals) <= 1e-8

    def test_souls_on_sigma(self, ctx, rng):
        data = make_np_data(ctx, rng, 2, souls=True)
        sigma = SeriesMatrix.constant(
            SuperMatrix.from_scalar(ctx.scalar(0.4) + random_soul(ctx, rng, scale=0.2)))
        solution = np_solve(data, sigma)
        assert max(solution.node_residuals) <= 1e-8


class TestConstantSigmaRoute:
    """np_solve maps an exact constant sigma through theta's realization and
    keeps lft_apply on theta's series as its reference."""

    @staticmethod
    def sigmas(ctx, rng):
        zero = SeriesMatrix.zero(ctx, 1, 1)
        with_souls = SeriesMatrix.constant(SuperMatrix.from_scalar(
            ctx.scalar(0.3 - 0.4j) + random_soul(ctx, rng, terms=3, scale=0.1)))
        return zero, with_souls

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
    def test_matches_lft_apply(self, ctx, seed, n_nodes):
        rng = np.random.default_rng(seed)
        data = make_np_data(ctx, rng, n_nodes)
        for sigma in self.sigmas(ctx, rng):
            assert is_schur_grassmann(sigma)
            solution = np_solve(data, sigma)
            assert "series" not in vars(solution.theta)  # theta's series was never built
            want = lft_apply(solution.theta.series, sigma)
            got = solution.series
            assert (got.degree, got.exact) == (want.degree, want.exact) == (ctx.max_series_degree, False)
            assert series_dist(got, want) <= 1e-12 * max(1.0, want.norm1())

    def test_singular_denominator_body(self, ctx):
        from grasschur.errors import DenominatorSingular

        # D = [[1, 0], [0, 0]] with sigma = 0: the denominator c sigma + d has a zero body
        r = Realization.constant(SuperMatrix.from_body(ctx, [[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DenominatorSingular):
            schur._lft_realization(r, SuperMatrix.zeros(ctx, 1, 1))

    @pytest.mark.parametrize("exact", [True, False], ids=["polynomial", "truncated"])
    def test_series_sigma_keeps_lft_apply(self, rng, exact):
        ctx = degree_context(12)
        data = make_np_data(ctx, rng, 2)
        sigma = SeriesMatrix.from_coeffs([SuperMatrix.from_scalar(ctx.scalar(0.3) + random_soul(ctx, rng, scale=0.1)),
                                          SuperMatrix.from_body(ctx, [[0.2j]])], exact=exact)
        solution = np_solve(data, sigma)
        want = lft_apply(build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data),
                                     data.signature()).series, sigma)
        assert solution.series.degree == want.degree
        assert solution.series.keys.tobytes() == want.keys.tobytes()
        assert solution.series.stack.tobytes() == want.stack.tobytes()

    def test_theta_series_is_built_once(self, rng):
        ctx = degree_context(9)
        data = make_np_data(ctx, rng, 2)
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature())
        first = theta.series
        assert theta.series is first and first.degree == 9
        assert [f.name for f in dataclasses.fields(ThetaFunction)] == ["realization", "p", "j", "k"]


class TestSchurStep:
    def test_constant_input_continues_with_zero(self, ctx):
        sigma = scalar_series(ctx, [0.5] + [0.0] * 6)
        rho, nxt, section = schur_step(sigma)
        assert rho.body == pytest.approx(0.5)
        assert all(c.norm1() <= 1e-12 for c in nxt.coeffs)

    def test_body_matches_classical_two_steps(self, ctx):
        sigma = scalar_series(ctx, [0.5, 0.25] + [0.0] * 8)
        rho0, sigma1, _ = schur_step(sigma)
        rho1, _, _ = schur_step(sigma1, 1)
        assert rho0.body == pytest.approx(0.5)
        assert rho1.body == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_boundary_raises(self, ctx):
        sigma = scalar_series(ctx, [1.0, 0.0])
        with pytest.raises(RhoNotContractive):
            schur_step(sigma)

    def test_section_above_the_context_degree_is_a_domain_violation(self):
        # the degree-one section cannot exist in a degree-0 context
        sigma = scalar_series(AlgebraContext(generators=4, max_series_degree=0), [0.5])
        with pytest.raises(DomainViolation, match="degree 1 exceeds max_series_degree 0"):
            schur_step(sigma)

    @pytest.mark.parametrize("degree,exact", [(8, False), (3, True), (0, True)])
    def test_pair_step_from_one_is_the_star_quotient(self, degree, exact, ctx, rng):
        sigma = soulful_series(ctx, rng, degree, exact=exact)
        rho, nxt, section = schur_step(sigma, 2)
        ref_rho, ref_nxt, ref_section = ref_schur_step(sigma, 2)
        assert rho == ref_rho and section == ref_section
        assert (nxt.degree, nxt.exact) == (ref_nxt.degree, ref_nxt.exact)
        assert series_dist(nxt, ref_nxt) <= 1e-12 * max(1.0, ref_nxt.norm1())

    def test_section_of_another_rho_is_a_section_residual(self, ctx):
        with pytest.raises(SectionResidual, match="fail to vanish at step 3") as info:
            schur._verify_section_vanishing(ctx.scalar(0.4), schur_section(ctx.scalar(-0.4)), 3, 1.0)
        assert info.value.code == "section-residual"

    def test_section_vanishing_identities(self, ctx, rng):
        rho = ctx.scalar(0.4 + 0.2j) + random_soul(ctx, rng, scale=0.1)
        section = schur_section(rho)
        # M(0) has vanishing "determinant" structure: both solve identities at 0
        sigma = SeriesMatrix.constant(SuperMatrix.from_scalar(rho))
        s0 = sigma.coeffs[0][0, 0]
        a0, b0 = section.coeffs[0][0, 0], section.coeffs[0][0, 1]
        c0, d0 = section.coeffs[0][1, 0], section.coeffs[0][1, 1]
        assert (b0 - mul(s0, d0)).norm1() <= 1e-10
        assert (mul(s0, c0) - a0).norm1() <= 1e-10


class TestSectionStep:
    def test_round_trip_through_section(self, ctx, rng):
        sigma = scalar_series(ctx, [0.5, 0.25, 0.1, 0.05, 0.02, 0.0, 0.0, 0.0])
        rho, nxt, section = section_step(sigma)
        recovered = lft_apply(section, nxt)
        assert series_dist(recovered.truncated(4), sigma.truncated(4)) <= 1e-9

    def test_modified_chain_differs_from_classical(self, ctx):
        # the section parametrization rotates the next iterate: constant 1/2
        # maps to constant 1/2 (not 0), and 1/2 + lambda/4 gives rho1 = 5/7
        sigma = scalar_series(ctx, [0.5] + [0.0] * 6)
        _, nxt, _ = section_step(sigma)
        assert nxt.coeffs[0][0, 0].body == pytest.approx(0.5)
        sigma2 = scalar_series(ctx, [0.5, 0.25] + [0.0] * 8)
        _, nxt2, _ = section_step(sigma2)
        assert nxt2.coeffs[0][0, 0].body == pytest.approx(5.0 / 7.0, abs=1e-12)

    @pytest.mark.parametrize("exact", [True, False], ids=["polynomial", "truncated"])
    def test_vanishing_shifted_pivot_raises_step_singular(self, ctx, exact):
        # rho = 1/2 and g = 4/3 give (R0 M)(0) = g(|rho|^2 - sigma_1 rho† - 1) = 0 for sigma_1 = -3/2
        sigma = scalar_series(ctx, [0.5, -1.5, 0.2], exact=exact)
        with pytest.raises(StepSingular) as caught:
            section_step(sigma, step=3)
        assert caught.value.step == 3


# -- one star product per linear-fractional map ---------------------------------


def ref_lft_apply(block, sigma):
    """lft_apply from the four blocks of theta: three star products, two sums."""
    p, q = sigma.shape
    a, b = block.block(0, p, 0, p), block.block(0, p, p, p + q)
    c, d = block.block(p, p + q, 0, p), block.block(p, p + q, p, p + q)
    return star_mul(star_mul(a, sigma) + b, star_inverse(star_mul(c, sigma) + d))


def ref_section_step(sigma, step=0):
    """section_step with N = b - sigma⋆d and M = sigma⋆c - a formed and shifted one by one."""
    rho = sigma.coeffs[0][0, 0]
    section = schur_section(rho)
    a, b = section.block(0, 1, 0, 1), section.block(0, 1, 1, 2)
    c, d = section.block(1, 2, 0, 1), section.block(1, 2, 1, 2)
    m_shift, n_shift = backward_shift(star_mul(sigma, c) - a), backward_shift(b - star_mul(sigma, d))
    if abs(m_shift.coeffs[0][0, 0].body) <= sigma.context.tol_body:
        raise StepSingular(step)
    return rho, star_mul(star_inverse(m_shift), n_shift), section


def ref_brune_section(c, a, p, j):
    """brune_section as theta's series star-multiplied by the constant M^{-1}."""
    one = a.context.one()
    theta = build_theta(c, SuperMatrix.from_scalar(a), SuperMatrix.from_scalar(p), j)
    chain = mul(dagger(one + a), mul(invert(p), invert(dagger(one - a))))
    m = SuperMatrix.identity(a.context, c.rows) - mat_mul(mat_mul(c.scale_right(chain), adjoint(c)), j) * 0.5
    return star_mul(theta.series, SeriesMatrix.constant(mat_invert(m)))


def same_values(f, g):
    """Same degree, flag, keys and stack values; == takes -0.0 for 0.0, the one difference allowed."""
    return ((f.degree, f.exact, f.keys.tobytes()) == (g.degree, g.exact, g.keys.tobytes())
            and f.stack.shape == g.stack.shape and bool((f.stack == g.stack).all()))


def soulful_coefficients(ctx, rng, bodies, rows, cols):
    """One coefficient per body matrix, every entry with a one_map_soul."""
    return [SuperMatrix.from_rows([[ctx.scalar(complex(x)) + one_map_soul(ctx, rng, 0.02) for x in row]
                                   for row in np.reshape(body, (rows, cols))]) for body in bodies]


def one_map_soul(ctx, rng, scale):
    """At N = 8 block_test_soul's filled soul; at N = 64 an odd generator of 1, 9, 33 and 57 plus
    that pool's other generators times generator 64, so that products stay within 32 monomials
    (block_test_soul's free draws make a degree-32 star inverse run for minutes)."""
    if ctx.generators == 8:
        return block_test_soul(ctx, rng, scale)
    first, second, third = rng.choice([1, 9, 33, 57], size=3, replace=False).tolist()
    return (ctx.basis((first,)) * (scale * complex(*rng.normal(size=2)))
            + ctx.basis(tuple(sorted((second, third))) + (64,)) * (scale * complex(*rng.normal(size=2))))


def lft_case(generators, shape, exact):
    """(theta, sigma): a 2x2 Theta series of three nodes and a scalar sigma, or a 3x3
    truncated block series and a 2x1 sigma (p = 2, q = 1); filled souls at N = 8,
    sparse ones at N = 64; sigma of degree 3, exact or truncated."""
    ctx = AlgebraContext(generators=generators)
    rng = np.random.default_rng([33, generators, shape[0]])
    p, q = shape
    if (p, q) == (1, 1):
        bodies = make_np_data(ctx, rng, 3, souls=False)
        data = InterpolationData(tuple(z + one_map_soul(ctx, rng, 0.02) for z in bodies.nodes),
                                 tuple(s + one_map_soul(ctx, rng, 0.02) for s in bodies.values))
        theta = build_theta(data.output_matrix(), data.state_matrix(), pick_matrix(data), data.signature()).series
    else:
        bodies = [np.eye(p + q) + 0.2 * rng.normal(size=(p + q, p + q))] + [
            0.3 ** n * rng.normal(size=(p + q, p + q)) for n in range(1, 6)]
        theta = SeriesMatrix(soulful_coefficients(ctx, rng, bodies, p + q, p + q))
    sigma = SeriesMatrix(soulful_coefficients(ctx, rng, [0.4 ** n * rng.normal(size=(p, q)) for n in range(4)], p, q),
                         exact=exact)
    return theta, sigma


def section_case(generators, exact):
    """A scalar sigma with a soul on every coefficient: degree 3 exact or degree 32 truncated."""
    ctx = AlgebraContext(generators=generators)
    rng = np.random.default_rng([34, generators, exact])
    degree = 3 if exact else ctx.max_series_degree
    bodies = [0.5 - 0.2j] + [0.6 ** n * complex(*rng.normal(size=2)) * 0.3 for n in range(1, degree + 1)]
    return SeriesMatrix(soulful_coefficients(ctx, rng, bodies, 1, 1), exact=exact)


def count_calls(monkeypatch, *names):
    """Count the calls schur makes to each named function."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(schur, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(schur, name, counted)
    return calls


def brune_cases(ctx, rng):
    """(c, a, p, J): the closed-form case, and an isotropic c = col(u, u) with a soul on u,
    a unimodular a = e^{0.7i}(1 + v)/|1 + v| with an odd soul v and p = 1.5."""
    j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
    base = ctx.one() + ctx.generator(1) * 0.3
    a = mul(base, invert(kth_root(mul(dagger(base), base), 2))) * np.exp(0.7j)
    u = ctx.scalar(0.8) + one_map_soul(ctx, rng, 0.05)
    return [(SuperMatrix.column([ctx.one(), ctx.one()]), ctx.scalar(1j), ctx.scalar(2.0), j),
            (SuperMatrix.column([u, u]), a, ctx.scalar(1.5), j)]


class TestOneProductPerMap:
    """lft_apply and section_step form their composite in one star product, brune_section
    expands theta's realization: each against the formula it replaced."""

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "truncated"])
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1)], ids=["theta 2x2", "block 3x3"])
    @pytest.mark.parametrize("generators", [8, 64])
    def test_lft_apply_matches_the_four_block_formula(self, monkeypatch, generators, shape, exact):
        theta, sigma = lft_case(generators, shape, exact)
        want = ref_lft_apply(theta, sigma)
        calls = count_calls(monkeypatch, "star_mul", "star_inverse")
        got = lft_apply(theta, sigma)
        assert calls == {"star_mul": 2, "star_inverse": 1}
        assert same_values(got, want)
        assert got.shape == shape and len(got.keys) > 1

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "truncated"])
    @pytest.mark.parametrize("generators", [8, 64])
    def test_section_step_matches_the_two_shift_formula(self, monkeypatch, generators, exact):
        sigma = section_case(generators, exact)
        ref_rho, ref_next, ref_section = ref_section_step(sigma, 2)
        calls = count_calls(monkeypatch, "star_mul", "star_inverse")
        rho, nxt, section = section_step(sigma, 2)
        assert calls == {"star_mul": 2, "star_inverse": 1}
        assert rho == ref_rho and section == ref_section
        assert same_values(nxt, ref_next) and len(nxt.keys) > 1

    @pytest.mark.parametrize("generators", [8, 64])
    def test_brune_section_expands_the_realization(self, monkeypatch, rng, generators):
        ctx = AlgebraContext(generators=generators)
        reads = []
        for c, a, p, j in brune_cases(ctx, rng):
            want = ref_brune_section(c, a, p, j)
            calls = count_calls(monkeypatch, "star_mul")
            monkeypatch.setattr(ThetaFunction, "series", property(reads.append))
            got = brune_section(c, a, p, j)
            monkeypatch.undo()
            assert calls == {"star_mul": 0} and reads == []
            assert (got.degree, got.exact) == (want.degree, want.exact) == (ctx.max_series_degree, False)
            assert series_dist(got, want) <= 1e-12 * max(1.0, want.norm1())


class TestSchurAlgorithm:
    def test_zero_chain(self, ctx):
        chain = schur_algorithm(scalar_series(ctx, [0.0] * 8), max_steps=4)
        assert chain.steps == 4
        assert all(r.is_zero() for r in chain.rhos)
        assert chain.termination == "max_steps"

    def test_complex_body_matches_oracle(self, ctx, rng):
        for _ in range(5):
            coeffs = rng.normal(size=9) + 1j * rng.normal(size=9)
            coeffs *= 0.9 / np.sum(np.abs(coeffs))
            chain = schur_algorithm(scalar_series(ctx, list(coeffs)), max_steps=6)
            expected, boundary = classical_schur(list(coeffs), steps=6)
            assert not boundary and chain.steps == 6
            for got, want in zip(chain.rhos, expected):
                assert abs(got.body - want) <= 1e-9

    def test_soul_perturbation_keeps_body_chain(self, ctx, rng):
        coeffs = rng.normal(size=8) + 1j * rng.normal(size=8)
        coeffs *= 0.8 / np.sum(np.abs(coeffs))
        plain = scalar_series(ctx, list(coeffs))
        soulful = SeriesMatrix.from_coeffs([
            SuperMatrix.from_scalar(ctx.scalar(c) + random_soul(ctx, rng, terms=2, scale=0.1))
            for c in coeffs
        ])
        chain_a = schur_algorithm(plain, max_steps=5)
        chain_b = schur_algorithm(soulful, max_steps=5)
        for ra, rb in zip(chain_a.rhos, chain_b.rhos):
            assert abs(ra.body - rb.body) <= 1e-9

    def test_blaschke_boundary_halt(self, ctx):
        # s(lambda) = lambda: the classical chain hits |rho| = 1 at step 1
        chain = schur_algorithm(scalar_series(ctx, [0.0, 1.0, 0.0, 0.0, 0.0]), max_steps=5)
        assert chain.termination == "rho_boundary"
        assert chain.steps == 1
        _, cl_boundary = classical_schur([0j, 1.0 + 0j, 0j, 0j, 0j], steps=5)
        assert cl_boundary

    def test_rejects_non_schur(self, ctx):
        with pytest.raises(NotSchur):
            schur_algorithm(scalar_series(ctx, [2.0, 0.0]), max_steps=2)

    @pytest.mark.parametrize("max_steps", [-1, -3, 1.5, "2", True, False])
    def test_rejects_bad_max_steps(self, max_steps, ctx):
        with pytest.raises(DomainViolation):
            schur_algorithm(scalar_series(ctx, [0.5, 0.25]), max_steps=max_steps)

    def test_zero_steps(self, ctx):
        chain = schur_algorithm(scalar_series(ctx, [0.5, 0.25]), max_steps=0)
        assert chain.steps == 0 and chain.termination == "max_steps"

    @pytest.mark.parametrize("degree,exact,max_steps", [(0, False, 3), (2, False, 0), (0, True, 3), (4, False, 2)])
    def test_rejects_matrix_series_before_any_step(self, degree, exact, max_steps, ctx):
        s = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, 0.1 * np.eye(2))] * (degree + 1), exact=exact)
        with pytest.raises(ShapeMismatch):
            schur_algorithm(s, max_steps)


def ref_schur_step(sigma, step=0):
    """The star-quotient step: rho = sigma(0) and sigma_next = R0 sigma ⋆ (1 - rho† sigma)^{-star},
    with the elementary section built and checked at every step."""
    rho = sigma.coeffs[0][0, 0]
    if abs(rho.body) >= 1.0 - sigma.context.tol_body:
        raise RhoNotContractive(step, f"|rho_B| = {abs(rho.body):.6f} at step {step}")
    section = schur_section(rho)
    schur._verify_section_vanishing(rho, section, step, sigma.norm1())
    denominator = SeriesMatrix.identity(sigma.context, 1) - sigma.scale_left(dagger(rho))
    return rho, star_mul(backward_shift(sigma), star_inverse(denominator)), section


def ref_schur_algorithm(s, max_steps):
    """The chain of iterated star-quotient steps, sigma cut before each step to the degree
    max_steps - step that the steps left read (the step is lower-triangular in degree, so
    the cut moves no rho): the reference the pair recursion must match to rounding.  A
    truncated s stops after step s.degree, since rho_k reads s_0..s_k.  An exact non-constant
    s stops once sigma, cut at max_series_degree by star_inverse in its first step, is down
    to degree 0, so this serves exact input for at most max_series_degree + 1 steps only."""
    if not is_schur_grassmann(s):
        raise GrasschurError("input is not a Schur-Grassmann function")
    sigma, rhos, termination = s, [], "max_steps"
    for step in range(max_steps):
        if (step > s.degree) if not s.exact else (sigma.degree < 1 and not sigma.exact):
            termination = "degree_exhausted"
            break
        if sigma.degree > max_steps - step:
            sigma = sigma.truncated(max_steps - step)
        try:
            rho, sigma, _ = ref_schur_step(sigma, step)
        except RhoNotContractive:
            termination = "rho_boundary"
            break
        rhos.append(rho)
    return schur.SchurChain(rhos=tuple(rhos), termination=termination)


def uncut_pair_chain(s, max_steps):
    """The pair recursion carried at the input's full degree (no cut): the chain the
    degree-cut schur_algorithm must match bit for bit.  A truncated s is read down to its
    last coefficient (rho_k reads s_0..s_k); an exact s runs to max_steps or the boundary."""
    if not is_schur_grassmann(s):
        raise GrasschurError("input is not a Schur-Grassmann function")
    a, b = SeriesMatrix.identity(s.context, 1), s
    rhos, termination = [], "max_steps"
    for step in range(max_steps):
        if step > s.degree and not s.exact:
            termination = "degree_exhausted"
            break
        try:
            rho, a, b = schur._pair_step(a, b, step)
        except RhoNotContractive:
            termination = "rho_boundary"
            break
        rhos.append(rho)
    return schur.SchurChain(rhos=tuple(rhos), termination=termination)


def assert_rhos_match(got, want, growth=()):
    """Equal steps and termination, and each rho_k within 1e-12 max(1, ||rho_ref||_1), times
    growth[k] where given."""
    assert (got.steps, got.termination) == (want.steps, want.termination)
    for k, (g, w) in enumerate(zip(got.rhos, want.rhos)):
        factor = growth[k] if k < len(growth) else 1.0
        assert (g - w).norm1() <= 1e-12 * max(1.0, w.norm1()) * factor, (k, g, w)


def chain_bits(chain):
    """Everything a chain holds, bitwise: rho term maps by repr, section keys and stacks by bytes."""
    return ([repr(sorted(r.terms.items())) for r in chain.rhos],
            [(f.keys.tobytes(), f.stack.tobytes(), f.exact) for f in chain.sections], chain.termination)


def soulful_series(ctx, rng, degree, exact=False, norm=0.8):
    """A scalar Schur-Grassmann series: random complex bodies of 1-norm ``norm``, 2-term souls."""
    bodies = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
    bodies *= norm / np.sum(np.abs(bodies))
    return SeriesMatrix.from_coeffs([
        SuperMatrix.from_scalar(ctx.scalar(b) + random_soul(ctx, rng, terms=2, scale=0.1))
        for b in bodies], exact=exact)


def blaschke_times_z(ctx, a, degree):
    """s(z) = z (z - a)/(1 - a z), a real: rho_0 = 0, rho_1 = -a, then |rho_2| = 1."""
    coeffs = [0.0, -a] + [(1 - a * a) * a ** (n - 2) for n in range(2, degree + 1)]
    return scalar_series(ctx, coeffs[:degree + 1])


def series_of_chain(ctx, rhos, degree):
    """The degree-``degree`` series whose Schur chain is ``rhos`` (complex), then zeros:
    sigma_k = (rho_k + z sigma_{k+1}) / (1 + conj(rho_k) z sigma_{k+1}), divided term by term."""
    sigma = np.zeros(degree + 1, dtype=complex)
    for rho in reversed(rhos):
        z_sigma = np.concatenate(([0.0], sigma[:-1]))
        numerator, denominator = z_sigma.copy(), np.conj(rho) * z_sigma
        numerator[0] += rho
        denominator[0] += 1.0
        for n in range(degree + 1):
            sigma[n] = numerator[n] - denominator[1:n + 1] @ sigma[n - 1::-1][:n] if n else numerator[0]
    return scalar_series(ctx, list(sigma))


CUT_CASES = [
    (10, 4, False, "max_steps"),  # degree > max_steps
    (4, 4, False, "max_steps"),  # degree = max_steps
    (3, 6, False, "degree_exhausted"),  # degree < max_steps
    (3, 6, True, "max_steps"),  # exact, below max_steps
    (9, 3, True, "max_steps"),  # exact, above max_steps
    (0, 2, True, "max_steps"),  # exact constant: rho, then the known zeros
    (0, 2, False, "degree_exhausted"),
]


class TestSchurAlgorithmReadsOnlyWhatItNeeds:
    """schur_algorithm cuts the pair to the degree its remaining steps read; the chain must
    equal the uncut pair recursion bit for bit, and the star-quotient chain to rounding."""

    @staticmethod
    def check_cut_chain(s, max_steps):
        got = schur_algorithm(s, max_steps)
        assert chain_bits(got) == chain_bits(uncut_pair_chain(s, max_steps))
        # the star-quotient reference follows an exact s through max_series_degree + 1 steps only
        steps = min(max_steps, s.context.max_series_degree + 1) if s.exact else max_steps
        assert_rhos_match(got if steps == max_steps else schur_algorithm(s, steps), ref_schur_algorithm(s, steps))
        return got

    @pytest.mark.parametrize("degree,max_steps,exact,termination", CUT_CASES)
    def test_matches_uncut_reference(self, degree, max_steps, exact, termination, ctx, rng):
        s = soulful_series(ctx, rng, degree, exact=exact)
        assert self.check_cut_chain(s, max_steps).termination == termination

    @pytest.mark.parametrize("degree,max_steps,exact,termination", CUT_CASES)
    def test_matches_uncut_reference_at_n64(self, degree, max_steps, exact, termination, rng):
        s = soulful_series(AlgebraContext(generators=64), rng, degree, exact=exact)
        assert self.check_cut_chain(s, max_steps).termination == termination

    @pytest.mark.parametrize("generators", [8, 64])
    @pytest.mark.parametrize("degree", [0, 1, 3, 8])
    def test_truncated_series_yields_every_determined_rho(self, degree, generators, rng):
        """rho_k reads s_0..s_k, so a truncated s of degree d determines rho_0..rho_d."""
        s = soulful_series(AlgebraContext(generators=generators), rng, degree)
        got = self.check_cut_chain(s, degree + 3)
        expected, boundary = classical_schur([c[0, 0].body for c in s.coeffs], steps=degree + 1)
        assert not boundary and (got.steps, got.termination) == (degree + 1, "degree_exhausted")
        assert max(abs(r.body - w) for r, w in zip(got.rhos, expected)) <= 1e-12

    @pytest.mark.parametrize("exact,degree", [(False, 8), (True, 2)])
    def test_max_steps_beyond_max_series_degree(self, exact, degree, rng):
        s = soulful_series(AlgebraContext(generators=8, max_series_degree=8), rng, degree, exact=exact)
        got = self.check_cut_chain(s, 12)
        assert (got.steps, got.termination) == ((12, "max_steps") if exact else (9, "degree_exhausted"))

    @pytest.mark.parametrize("exact,degree", [(False, 8), (True, 2)])
    def test_max_steps_beyond_max_series_degree_at_n64(self, exact, degree, rng):
        s = soulful_series(AlgebraContext(generators=64, max_series_degree=8), rng, degree, exact=exact)
        got = self.check_cut_chain(s, 12)
        assert (got.steps, got.termination) == ((12, "max_steps") if exact else (9, "degree_exhausted"))

    @pytest.mark.parametrize("generators", [8, 64])
    def test_exact_polynomial_runs_past_max_series_degree(self, generators, monkeypatch):
        """0.3 + 0.4z + 0.2z² with 2-term souls: the pair of an exact s keeps the degrees (2, 1), so the
        chain runs to max_steps; its first max_series_degree + 1 rhos are those of a chain stopped there."""
        ctx = AlgebraContext(generators=generators)
        rng = np.random.default_rng([39, generators])
        s = SeriesMatrix.from_coeffs([SuperMatrix.from_scalar(ctx.scalar(b) + random_soul(ctx, rng, terms=2, scale=0.1))
                                      for b in (0.3, 0.4, 0.2)], exact=True)
        degrees, step_fn = [], schur._pair_step

        def recording_step(a, b, step):
            degrees.append((a.degree, b.degree))
            return step_fn(a, b, step)

        monkeypatch.setattr(schur, "_pair_step", recording_step)
        schur_algorithm(s, 100)
        monkeypatch.undo()
        assert degrees == [(0, 2)] + [(2, 1)] * 98 + [(1, 1)]  # the last step reads degree 1
        got = self.check_cut_chain(s, 100)
        assert (got.steps, got.termination) == (100, "max_steps")
        assert got.rhos[:33] == schur_algorithm(s, 33).rhos
        expected, boundary = classical_schur([0.3, 0.4, 0.2] + [0.0] * 99, steps=100)
        assert not boundary and max(abs(r.body - w) for r, w in zip(got.rhos, expected)) <= 1e-12

    @pytest.mark.parametrize("max_steps", [3, 6])
    def test_mid_chain_rho_boundary(self, max_steps, ctx):
        got = self.check_cut_chain(blaschke_times_z(ctx, 0.5, 10), max_steps)
        assert got.termination == "rho_boundary" and got.steps == 2

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-9])
    def test_near_boundary_chain(self, eps, ctx):
        # rho_k reads sigma_k, whose rounding the steps before amplify by up to
        # 1/(1 - |rho_j|^2) each: the 1e-12 tolerance scales with that product
        s = series_of_chain(ctx, [1 - eps, -(1 - eps), 1 - eps, 0.3], 12)
        got, want = schur_algorithm(s, 6), ref_schur_algorithm(s, 6)
        assert chain_bits(got) == chain_bits(uncut_pair_chain(s, 6))
        growth = np.cumprod([1.0] + [1.0 / (1.0 - abs(r.body) ** 2) for r in want.rhos])
        assert_rhos_match(got, want, growth)

    # N = 64 stays small: the uncut reference carries a truncated input at its full degree
    @pytest.mark.parametrize("generators,degree,max_steps,exact", [
        (8, 12, 6, False), (8, 12, 6, True), (64, 8, 4, False), (64, 3, 4, True), (64, 3, 2, False)])
    def test_two_term_souls(self, generators, degree, max_steps, exact, rng):
        self.check_cut_chain(soulful_series(AlgebraContext(generators=generators), rng, degree, exact=exact),
                             max_steps)

    @pytest.mark.parametrize("degree,max_steps,exact", [(16, 6, False), (9, 3, True), (5, 5, False)])
    def test_step_reads_no_further_than_it_must(self, degree, max_steps, exact, ctx, rng, monkeypatch):
        seen = []
        step_fn = schur._pair_step

        def recording_step(a, b, step):
            seen.append((step, a.degree, b.degree))
            return step_fn(a, b, step)

        s = soulful_series(ctx, rng, degree, exact=exact)
        monkeypatch.setattr(schur, "_pair_step", recording_step)
        chain = schur_algorithm(s, max_steps)
        assert [step for step, _, _ in seen] == list(range(max_steps))
        assert all(max(da, db) <= max_steps - step for step, da, db in seen), seen
        # coefficients above max_steps are never read
        tail = soulful_series(ctx, np.random.default_rng(7), degree, exact=exact, norm=0.05)
        changed = SeriesMatrix.from_coeffs(s.coeffs[:max_steps + 1] + tuple(
            a + b for a, b in zip(s.coeffs[max_steps + 1:], tail.coeffs[max_steps + 1:])), exact=exact)
        assert all(changed.coeffs[n] != s.coeffs[n] for n in range(max_steps + 1, degree + 1))
        assert chain_bits(schur_algorithm(changed, max_steps)) == chain_bits(chain)


class TestLazySections:
    def test_sections_are_schur_sections_of_the_rhos(self, ctx, rng):
        chain = schur_algorithm(soulful_series(ctx, rng, 8), 5)
        assert chain.steps == 5
        for rho, section in zip(chain.rhos, chain.sections):
            want = schur_section(rho)
            assert (section.keys.tobytes(), section.stack.tobytes(), section.exact) == (
                want.keys.tobytes(), want.stack.tobytes(), want.exact)

    def test_each_section_built_is_checked_once(self, ctx, rng, monkeypatch):
        checked = []
        verify = schur._verify_section_vanishing

        def recording_verify(rho, section, step, norm):
            checked.append(step)
            return verify(rho, section, step, norm)

        monkeypatch.setattr(schur, "_verify_section_vanishing", recording_verify)
        chain = schur_algorithm(soulful_series(ctx, rng, 8), 5)
        assert checked == []
        assert chain.sections is chain.sections and len(chain.sections) == 5
        assert checked == list(range(5))


class TestBlaschke:
    def test_classical_at_origin(self):
        ctx = degree_context(6)
        b = blaschke_factor(ctx.zero(), ctx.one(), ctx.one())
        # b(z) = z exactly
        assert b.series.coeffs[0].norm1() <= 1e-12
        assert (b.series.coeffs[1][0, 0] - ctx.one()).norm1() <= 1e-12
        assert all(c.norm1() <= 1e-12 for c in b.series.coeffs[2:])
        assert b.omega.is_zero()

    def test_classical_complex_body(self, ctx):
        a_val, p_val = 0.5, 1.3
        c_val = np.sqrt(p_val * (1 - a_val**2))
        b = blaschke_factor(ctx.scalar(a_val), ctx.scalar(c_val), ctx.scalar(p_val))
        # body is (1-a)(z - a̅)/((1-za)(1-a̅)) — a unimodular multiple of the
        # classical Blaschke factor; check pointwise
        for lam in (0.2, -0.3 + 0.1j, 0.4j):
            got = b.eval_at(ctx.scalar(lam)).body
            expected = (1 - a_val) * (lam - a_val) / ((1 - lam * a_val) * (1 - a_val))
            assert got == pytest.approx(expected, abs=1e-9)

    def test_eval_outside_convergence_disk(self, ctx, rng):
        a = ctx.scalar(0.5) + random_soul(ctx, rng, terms=2, scale=0.1)
        p = ctx.scalar(1.5)
        b = blaschke_factor(a, kth_root(p - mul(dagger(a), mul(p, a)), 2), p)
        with pytest.raises(NotConvergent):
            b.eval_at(ctx.scalar(2.0) + ctx.generator(1))

    def test_zero_residual_with_souls(self, ctx, rng):
        for _ in range(10):
            a = ctx.scalar(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)))
            a = a + random_soul(ctx, rng, terms=2, scale=0.1)
            p = ctx.scalar(1.0 + rng.random())
            s = random_soul(ctx, rng, terms=2, scale=0.1)
            p = p + s + dagger(s)
            target = p - mul(dagger(a), mul(p, a))
            c = kth_root(target, 2)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            c = c * phase
            b = blaschke_factor(a, c, p)
            assert (b.eval_at(b.omega)).norm1() <= 1e-8

    def test_eval_matches_scalar_sandwich_reference(self, ctx, rng):
        # the scalar formula 1 - (1-z) (sum_n z^n c a^n) k, k = p^{-1} (1-a)^{-†} c†
        for parity in ("even", "odd", None):
            a = ctx.scalar(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.4, 0.4)))
            a = a + random_soul(ctx, rng, terms=2, scale=0.1)
            p = ctx.scalar(1.0 + rng.random())
            c = kth_root(p - mul(dagger(a), mul(p, a)), 2)
            b = blaschke_factor(a, c, p)
            k = mul(invert(p), mul(invert(dagger(ctx.one() - a)), dagger(c)))
            z = ctx.scalar(complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)))
            z = z + random_soul(ctx, rng, terms=2, scale=0.1, parity=parity)
            total = mul(geometric_sandwich_sum(z, c, a), k)
            want = ctx.one() - mul(ctx.one() - z, total)
            assert (b.eval_at(z) - want).norm1() <= 1e-12 * max(1.0, want.norm1())

    def test_factorized_form_matches_series(self, rng):
        ctx = degree_context(12)
        a = ctx.scalar(0.4 + 0.1j) + random_soul(ctx, rng, terms=2, scale=0.1)
        p = ctx.scalar(1.5)
        target = p - mul(dagger(a), mul(p, a))
        c = kth_root(target, 2)
        b = blaschke_factor(a, c, p)
        fact = b.factorized_series()
        assert series_dist(b.series, fact) <= 1e-8


class TestBrune:
    def make_isotropic(self, ctx):
        return SuperMatrix.column([ctx.one(), ctx.one()])

    def test_zero_c_gives_identity(self):
        ctx = degree_context(5)
        c = SuperMatrix.zeros(ctx, 2, 1)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        out = brune_section(c, ctx.scalar(1j), ctx.one(), j)
        assert (out.coeffs[0] - SuperMatrix.identity(ctx, 2)).norm1() <= 1e-12
        assert all(co.is_zero() for co in out.coeffs[1:])

    def test_closed_form(self):
        # theta_BP = I - u/2 - sum_{n>=1} z^n a^n u with u = c p^{-1} c* J
        ctx = degree_context(6)
        c = self.make_isotropic(ctx)
        a = ctx.scalar(1j)
        p = ctx.scalar(2.0)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        got = brune_section(c, a, p, j)
        u = mat_mul(mat_mul(c, adjoint(c)), j).scale_left(invert(p))
        expected0 = SuperMatrix.identity(ctx, 2) - u * 0.5
        assert (got.coeffs[0] - expected0).norm1() <= 1e-10
        apow = a
        for n in range(1, 7):
            assert (got.coeffs[n] + u.scale_left(apow)).norm1() <= 1e-10
            apow = mul(apow, a)

    def test_scaling_p_consistent(self):
        ctx = degree_context(4)
        c = self.make_isotropic(ctx)
        a = ctx.scalar(-1.0)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        one = brune_section(c, a, ctx.scalar(1.0), j)
        two = brune_section(c, a, ctx.scalar(2.0), j)
        # doubling p halves the correction away from the identity
        eye = SuperMatrix.identity(ctx, 2)
        for n in range(5):
            base = one.coeffs[n] - (eye if n == 0 else SuperMatrix.zeros(ctx, 2, 2))
            scaled = two.coeffs[n] - (eye if n == 0 else SuperMatrix.zeros(ctx, 2, 2))
            assert (scaled - base * 0.5).norm1() <= 1e-10

    def test_unimodular_soul_case(self):
        # a = exp(i theta)(1 + superreal odd soul correction) with a†a = 1:
        # build from a superreal odd v via a = phase*(1+v)/sqrt((1+v)†(1+v)) —
        # here (1+v)†(1+v) = 1 + 2v + v² = 1+2v, and a†a = 1 follows
        ctx = degree_context(4)
        v = ctx.generator(1) * 0.3
        base = ctx.one() + v
        norm = kth_root(mul(dagger(base), base), 2)
        phase = np.exp(0.7j)
        a = mul(base, invert(norm)) * phase
        assert (mul(dagger(a), a) - ctx.one()).norm1() <= 1e-10
        p = ctx.scalar(1.5)
        assert (p - mul(dagger(a), mul(p, a))).norm1() <= 1e-9
        c = self.make_isotropic(ctx)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        out = brune_section(c, a, p, j)
        assert out.shape == (2, 2)

    def test_isotropy_violation(self, ctx):
        c = SuperMatrix.column([ctx.one(), ctx.scalar(0.5)])
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        with pytest.raises(IsotropyViolated):
            brune_section(c, ctx.scalar(1j), ctx.one(), j)

    def test_unimodularity_enforced(self, ctx):
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        with pytest.raises(NotUnimodular):
            brune_section(self.make_isotropic(ctx), ctx.scalar(0.5), ctx.one(), j)


class TestKernels:
    def test_kernel_at_zero(self, rng):
        ctx = degree_context(5)
        xi = random_supermatrix(ctx, rng, 2, 1)
        k = kernel_eval(ctx.zero(), xi)
        assert (k.coeffs[0] - xi).norm1() == 0
        assert all(c.is_zero() for c in k.coeffs[1:])

    def test_reproducing_property_polynomial(self, rng):
        ctx = degree_context(8)
        w = ctx.scalar(0.4 + 0.1j) + random_soul(ctx, rng, terms=2, scale=0.1)
        xi = SuperMatrix.column([ctx.one(), ctx.scalar(0.5)])
        f = SeriesMatrix.from_coeffs(
            [random_supermatrix(ctx, rng, 2, 1, terms=2) for _ in range(4)], exact=True)
        k = kernel_eval(w, xi)
        form = hermitian_form(f, k)
        expected = mat_mul(adjoint(xi), evaluate(f, w))
        assert (form - expected).norm1() <= 1e-10 * max(1.0, f.norm1())

    def test_decomposition_residual(self, rng):
        # scalar J = I theta data: Blaschke-style
        ctx = degree_context(6)
        a = ctx.scalar(0.4)
        p = ctx.scalar(1.0)
        c_val = kth_root(p - mul(dagger(a), mul(p, a)), 2)
        theta = build_theta(
            SuperMatrix.from_scalar(c_val), SuperMatrix.from_scalar(a),
            SuperMatrix.from_scalar(p), SuperMatrix.identity(ctx, 1))
        w = random_even_unit(ctx, rng, body_modulus=0.3, soul_scale=0.05)
        xi = SuperMatrix.from_scalar(ctx.one())
        assert kernel_decomposition_residual(theta, w, xi) <= 1e-8

    def test_h_theta_kernel_outside_convergence_disk(self, ctx):
        a = ctx.scalar(0.4)
        p = ctx.scalar(1.0)
        theta = build_theta(
            SuperMatrix.from_scalar(kth_root(p - mul(dagger(a), mul(p, a)), 2)),
            SuperMatrix.from_scalar(a), SuperMatrix.from_scalar(p), SuperMatrix.identity(ctx, 1))
        xi = SuperMatrix.from_scalar(ctx.one())
        with pytest.raises(NotConvergent):
            h_theta_kernel(theta, ctx.scalar(2.5) + ctx.generator(1), xi)


class TestModuleInterpolation:
    def make_data(self, ctx, rng, q=2, p=2):
        a_body = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        a_body *= 0.45 / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
        a = SuperMatrix.from_body(ctx, a_body) + random_supermatrix(
            ctx, rng, q, q, body=0.0, scale=0.1, terms=2, max_grade=2)
        c = random_supermatrix(ctx, rng, p, q, scale=0.4, terms=2, max_grade=2)
        return c, a

    def test_minimal_solution_residual(self, ctx, rng):
        c, a = self.make_data(ctx, rng)
        x = random_supermatrix(ctx, rng, 2, 1, terms=2)
        sol = module_interpolate(c, a, x)
        got = adjoint_state_evaluation(c, a, sol.series)
        assert (got - x).norm1() <= 1e-8 * max(1.0, x.norm1())

    def test_homogeneous_orthogonality(self, ctx, rng):
        c, a = self.make_data(ctx, rng)
        x = SuperMatrix.zeros(ctx, 2, 1)
        h = SeriesMatrix.from_coeffs(
            [random_supermatrix(ctx, rng, 2, 1, terms=2, scale=0.3) for _ in range(3)], exact=True)
        sol = module_interpolate(c, a, x, h)
        # (C* ⋆ G)(A*) = 0 for G in Theta W+
        got = adjoint_state_evaluation(c, a, sol.series)
        assert got.norm1() <= 1e-7 * max(1.0, sol.series.norm1())
        # sampled orthogonality against C(I - zA)^{-star} xi
        for _ in range(4):
            xi = random_supermatrix(ctx, rng, 2, 1, terms=1)
            coeffs = []
            state = xi
            for _ in range(sol.series.degree + 1):
                coeffs.append(mat_mul(c, state))
                state = mat_mul(a, state)
            probe = SeriesMatrix.from_coeffs(coeffs)
            form = hermitian_form(sol.series, probe)
            assert form.norm1() <= 1e-7 * max(1.0, sol.series.norm1())

    def test_classical_body_case(self, ctx, rng):
        c, a = self.make_data(ctx, rng)
        # strip souls: classical Wiener-algebra interpolation on bodies
        c_body = SuperMatrix.from_body(ctx, c.body())
        a_body = SuperMatrix.from_body(ctx, a.body())
        x = SuperMatrix.from_body(ctx, rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1)))
        sol = module_interpolate(c_body, a_body, x)
        cb, ab, xb = c_body.body(), a_body.body(), x.body()
        pb = np.zeros((2, 2), dtype=complex)
        for n in range(500):
            pb += np.linalg.matrix_power(ab.conj().T, n) @ cb.conj().T @ cb @ np.linalg.matrix_power(ab, n)
        fmin0 = cb @ np.linalg.solve(pb, xb)
        assert np.allclose(sol.minimal.coeffs[0].body(), fmin0, atol=1e-8)


class TestOneTruncationDegree:
    """Every L3 series is cut at the context's max_series_degree: built in a degree-k
    context it is the degree-32 result cut at k, bit for bit."""

    @staticmethod
    def results(ctx, k):
        """The series of each function that takes its degree from the context, on inputs
        drawn alike in every context; sigma has degree min(1, k), so that it exists at k = 0."""
        rng = np.random.default_rng(26)
        c, a, p, j = random_stein_data(ctx, rng)
        theta = build_theta(c, a, p, j)
        nodes = [ctx.scalar(0.4 * np.exp(2j * np.pi * (m + 0.3) / 2)) + random_soul(ctx, rng, terms=2, scale=0.05)
                 for m in range(2)]
        c0, c1 = (ctx.scalar(b) + random_soul(ctx, rng, terms=2, scale=0.1) for b in (0.3 - 0.2j, 0.25j))
        data = InterpolationData(tuple(nodes), tuple(c0 + mul(z, c1) for z in nodes))
        sigma = SeriesMatrix([SuperMatrix.from_scalar(c0), SuperMatrix.from_scalar(c1 * 0.5)][:min(1, k) + 1],
                             exact=True)
        b_a = ctx.scalar(0.4 + 0.1j) + random_soul(ctx, rng, terms=2, scale=0.1)
        b_p = ctx.scalar(1.5)
        blaschke = blaschke_factor(b_a, kth_root(b_p - mul(dagger(b_a), mul(b_p, b_a)), 2), b_p)
        w = ctx.scalar(0.3 - 0.2j) + random_soul(ctx, rng, terms=2, scale=0.1)
        xi, x = (random_supermatrix(ctx, rng, 2, 1, terms=2) for _ in range(2))
        h = SeriesMatrix.constant(random_supermatrix(ctx, rng, 2, 1, terms=2, scale=0.3))
        module = module_interpolate(c, a, x, h)
        return {
            "np_solve": np_solve(data).series,
            "np_solve sigma": np_solve(data, sigma).series,
            "build_theta": theta.series,
            "blaschke_factor": blaschke.series,
            "factorized_series": blaschke.factorized_series(),
            "brune_section": brune_section(SuperMatrix.column([ctx.one(), ctx.one()]), ctx.scalar(1j),
                                           ctx.scalar(2.0), SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))),
            "kernel_eval": kernel_eval(w, xi),
            "h_theta_kernel": h_theta_kernel(theta, w, xi),
            "module_interpolate": module.series,
            "module_interpolate minimal": module.minimal,
        }

    @pytest.mark.parametrize("k", [0, 4, 12])
    def test_context_degree_is_the_full_result_truncated(self, ctx, k):
        got, full = self.results(degree_context(k), k), self.results(ctx, k)
        for name, f in full.items():
            want = f.truncated(k)
            assert (got[name].keys.tobytes(), got[name].stack.tobytes(), got[name].degree, got[name].exact) == (
                want.keys.tobytes(), want.stack.tobytes(), want.degree, want.exact), name


class TestContractivityForm:
    def test_multiplication_operator_contracts(self, ctx, rng):
        # [M_S F, M_S F] ⪯ [F, F] for Schur S, sampled
        data = make_np_data(ctx, rng, 2, souls=True)
        solution = np_solve(data)
        s = solution.series
        f = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_scalar(random_supernumber(ctx, rng, terms=2, scale=0.4))
             for _ in range(6)], exact=True)
        msf = star_mul(s, f)
        from grasschur.matrix import is_supernonnegative

        diff = hermitian_form(f, f) - hermitian_form(msf.truncated(s.degree), msf.truncated(s.degree))
        assert is_supernonnegative(SuperMatrix.from_scalar(diff[0, 0]))


def count_scans(monkeypatch):
    """Count every self-adjointness scan, in whichever module calls matrix._self_adjoint."""
    import grasschur.matrix as matrix
    import grasschur.realization as realization
    calls = {"_self_adjoint": 0}
    original = matrix._self_adjoint

    def counted(m):
        calls["_self_adjoint"] += 1
        return original(m)

    for module in (matrix, realization, schur):
        monkeypatch.setattr(module, "_self_adjoint", counted)
    return calls


class TestSelfAdjointByConstruction:
    """Where M = M* is known, only the body rule runs: no scan repeats that proof."""

    def test_stein_solution_is_self_adjoint_bit_for_bit(self, ctx):
        rng = np.random.default_rng(3001)
        for _ in range(20):
            q, p = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            c, a, pmat, j = random_stein_data(ctx, rng, q=q, p=p, spectral=float(rng.uniform(0.1, 0.8)))
            assert _self_adjoint(pmat) == (True, 0.0)

    @pytest.mark.parametrize("n_nodes", [1, 2, 3, 4])
    def test_pick_matrix_is_self_adjoint_bit_for_bit_at_n64(self, n_nodes):
        ctx = AlgebraContext(generators=64)  # sparse souls: two terms per node and value draw
        rng = np.random.default_rng([64, n_nodes])
        for _ in range(3):
            data = make_np_data(ctx, rng, n_nodes)
            p = stein_solve(data.output_matrix(), data.state_matrix(), data.signature())
            assert _self_adjoint(p) == (True, 0.0)

    def test_is_schur_grassmann_scans_nothing(self, monkeypatch, ctx):
        calls = count_scans(monkeypatch)
        assert is_schur_grassmann(scalar_series(ctx, [0.5, 0.2], exact=True))
        assert not is_schur_grassmann(scalar_series(ctx, [0.8, 0.7]))
        assert calls == {"_self_adjoint": 0}

    def test_kyp_check_scans_h_once(self, monkeypatch, ctx):
        r = Realization.constant(SuperMatrix.from_body(ctx, [[0.5]]))
        calls = count_scans(monkeypatch)
        with pytest.raises(HNotNegative, match="-H is not superpositive"):
            kyp_check(r, SuperMatrix.from_body(ctx, [[1.0]]))
        assert calls == {"_self_adjoint": 1}

    def test_np_solve_pick_gate_scans_nothing(self, monkeypatch, ctx):
        data = make_np_data(ctx, np.random.default_rng(3002), 3)
        calls = count_scans(monkeypatch)
        np_solve(data)
        assert calls == {"_self_adjoint": 2}  # build_theta's J and P checks, nothing else


def extend_cli(ctx, eta, tmp_path, capsys):
    """`grasschur toeplitz extend` of the order-0 spec (1) by eta: raises what the CLI reports on exit 2."""
    from grasschur.cli import main
    from grasschur.serialization import dumps, supernumber_to_obj, toeplitz_spec_to_obj

    (tmp_path / "spec.json").write_text(dumps(toeplitz_spec_to_obj(ToeplitzSpec((ctx.one(),)))))
    (tmp_path / "eta.json").write_text(dumps(supernumber_to_obj(eta)))
    code = main(["toeplitz", "extend", "--spec", str(tmp_path / "spec.json"), "--eta", str(tmp_path / "eta.json"),
                 "--out", str(tmp_path / "out.json")])
    assert code in (0, 2)
    if code:
        assert capsys.readouterr().err.startswith("error[eta-not-contractive]")
        raise EtaNotContractive("the CLI exited 2")


UNIT_DISK_SITES = {  # name: (error, call at body modulus m)
    "extend": (EtaNotContractive, lambda ctx, m, *_: extend(ToeplitzSpec((ctx.one(),)), ctx.scalar(m))),
    "cli toeplitz extend": (EtaNotContractive, lambda ctx, m, *fixtures: extend_cli(ctx, ctx.scalar(m), *fixtures)),
    "kernel_eval": (NotConvergent, lambda ctx, m, *_: kernel_eval(ctx.scalar(m), SuperMatrix.from_scalar(ctx.one()))),
    # y = -1 keeps the sandwich solve 1 + m away from singular
    "geometric_sandwich_sum": (NotConvergent,
                               lambda ctx, m, *_: geometric_sandwich_sum(ctx.scalar(m), ctx.one(), ctx.scalar(-1.0))),
    # |z_B||a_B| = m at z = -2m, a = 1/2, away from the pole z = 1/a
    "BlaschkeFactor.eval_at": (NotConvergent, lambda ctx, m, *_: blaschke_factor(
        ctx.scalar(0.5), ctx.scalar(0.75 ** 0.5), ctx.one()).eval_at(ctx.scalar(-2.0 * m))),
}


@pytest.mark.parametrize("inside", [False, True], ids=["1 - tol_body/2", "1 - 2 tol_body"])
@pytest.mark.parametrize("site", list(UNIT_DISK_SITES))
def test_open_unit_disk_ends_tol_body_below_one(site, inside, ctx, tmp_path, capsys):
    """One rule decides the open unit disk everywhere: a body modulus below 1 - tol_body."""
    error, call = UNIT_DISK_SITES[site]
    modulus = 1.0 - (2.0 if inside else 0.5) * ctx.tol_body
    if inside:
        call(ctx, modulus, tmp_path, capsys)
    else:
        with pytest.raises(error):
            call(ctx, modulus, tmp_path, capsys)
