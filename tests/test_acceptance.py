"""Acceptance suite: one test per criterion, each printing a PASS line.

Desk scale: exhaustive/oracle checks at N <= 10 generators, randomized checks
up to N = 64, series degree 32.  Tolerances are pinned here, not configured.
"""
import json

import numpy as np
import pytest

from grasschur import (
    AlgebraContext,
    SuperMatrix,
    adjoint,
    classify,
    dagger,
    invert,
    is_superpositive,
    kth_root,
    ldu_factor,
    mat_mul,
    mul,
    positive_factorize,
)
from grasschur.errors import BodyZero, RhoNotContractive
from grasschur.oracle import (
    DenseSupernumber,
    classical_np_solution,
    classical_schur,
    classical_toeplitz_extension,
    naive_mul,
)
from grasschur.realization import Realization, compose, inverse_realization, to_series
from grasschur.sampling import (
    random_even_unit,
    random_soul,
    random_supermatrix,
    random_supernumber,
    random_superpositive_matrix,
)
from grasschur.schur import (
    InterpolationData,
    blaschke_factor,
    build_theta,
    kernel_identity_residual,
    np_node_residuals,
    np_solve,
    schur_algorithm,
    schur_step,
    stein_solve,
)
from grasschur.series import (
    LaurentSeries,
    SeriesMatrix,
    evaluate,
    laurent_star_mul,
    star_inverse,
    star_mul,
    wiener_invert,
    wiener_is_invertible,
)
from grasschur.toeplitz import ToeplitzSpec, assemble, extend, extension_params, verify_extension

CTX8 = AlgebraContext(generators=8)
CTX64 = AlgebraContext(generators=64)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def series_dist(f, g):
    through = min(f.degree, g.degree)
    return sum((f.coeffs[n] - g.coeffs[n]).norm1() for n in range(through + 1))


def test_criterion_01_algebra_axioms():
    ctx10 = AlgebraContext(generators=10)
    for n in range(1, 11):
        for m in range(1, 11):
            anti = mul(ctx10.generator(n), ctx10.generator(m)) + mul(
                ctx10.generator(m), ctx10.generator(n))
            assert anti.is_zero()
    rng = np.random.default_rng(101)
    worst_assoc = 0.0
    worst_anti = 0.0
    for _ in range(10_000):
        x = random_supernumber(CTX64, rng, terms=4, max_grade=3)
        y = random_supernumber(CTX64, rng, terms=4, max_grade=3)
        z = random_supernumber(CTX64, rng, terms=4, max_grade=3)
        gap = (mul(mul(x, y), z) - mul(x, mul(y, z))).norm1()
        scale = x.norm1() * y.norm1() * z.norm1()
        worst_assoc = max(worst_assoc, gap / max(scale, 1e-300))
        anti_gap = (dagger(mul(x, y)) - mul(dagger(y), dagger(x))).norm1()
        worst_anti = max(worst_anti, anti_gap / max(x.norm1() * y.norm1(), 1e-300))
        assert dagger(dagger(x)) == x
    assert worst_assoc <= 1e-12
    assert worst_anti <= 1e-12
    report(1, f"assoc {worst_assoc:.2e}, dagger {worst_anti:.2e} over 1e4 triples")


def test_criterion_02_inversion_theorem():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        body = complex(rng.normal(), rng.normal())
        body *= max(0.1, abs(body)) / max(abs(body), 1e-12)
        z = random_supernumber(CTX64, rng, terms=4, max_grade=3, body=body, soul_scale=0.1)
        residual = (mul(z, invert(z)) - CTX64.one()).norm1()
        worst = max(worst, residual)
    assert worst <= 1e-9
    for _ in range(25):
        soul = random_soul(CTX64, rng, terms=4)
        with pytest.raises(BodyZero):
            invert(soul)
    report(2, f"worst residual {worst:.2e} over 1e3 inversions; BodyZero raised on souls")


def test_criterion_03_roots():
    rng = np.random.default_rng(103)
    worst_power = 0.0
    worst_symmetry = 0.0
    for k in (2, 3, 4):
        for _ in range(200):
            z = random_supernumber(CTX64, rng, terms=4, max_grade=3,
                                   body=complex(1.0 + rng.random(), rng.normal()), soul_scale=0.2)
            w = kth_root(z, k)
            worst_power = max(worst_power, (w**k - z).norm1() / max(1.0, z.norm1()))
    for _ in range(200):
        seed = random_supernumber(CTX64, rng, terms=3, max_grade=3, body=1.0 + rng.random())
        z = mul(seed, dagger(seed))
        assert classify(z).is_superpositive
        r = kth_root(z, 2)
        worst_symmetry = max(worst_symmetry, (r - dagger(r)).norm1() / max(1.0, r.norm1()))
    assert worst_power <= 1e-9
    assert worst_symmetry <= 1e-12
    report(3, f"k-th power residual {worst_power:.2e}, root symmetry {worst_symmetry:.2e}")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(104)
    for i in range(10_000):
        terms = 256 if i % 200 == 0 else 10  # a dense pair every 200 draws
        z = random_supernumber(CTX8, rng, terms=terms, max_grade=8)
        w = random_supernumber(CTX8, rng, terms=terms, max_grade=8)
        dense = naive_mul(
            DenseSupernumber.from_terms(8, z.terms),
            DenseSupernumber.from_terms(8, w.terms),
        )
        assert dense.to_terms() == mul(z, w).terms
    report(4, "sparse mul == dense bubble-sort oracle bit-exactly on 1e4 pairs at N=8")


def test_criterion_05_factorizations():
    rng = np.random.default_rng(105)
    worst_ldu = 0.0
    worst_ll = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        m = SuperMatrix.from_body(
            CTX8, 2 * np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        ) + random_supermatrix(CTX8, rng, n, n, body=0.0, scale=0.2, terms=2, max_grade=2)
        factors = ldu_factor(m)
        worst_ldu = max(worst_ldu, (factors.reconstruct() - m).norm1() / m.norm1())
    for _ in range(100):
        n = int(rng.integers(1, 6))
        m = random_superpositive_matrix(CTX8, rng, n, terms=2, max_grade=2, scale=0.4)
        assert is_superpositive(m)
        l = positive_factorize(m)
        ll = mat_mul(l, adjoint(l))
        worst_ll = max(worst_ll, (ll - m).norm1() / m.norm1())
        assert is_superpositive(ll)
    assert worst_ldu <= 1e-9
    assert worst_ll <= 1e-9
    report(5, f"LDU residual {worst_ldu:.2e}, LL* residual {worst_ll:.2e} on 100+100 instances")


def test_criterion_06_toeplitz_extension():
    rng = np.random.default_rng(106)
    worst_body = 0.0
    for trial in range(100):
        order = int(rng.integers(0, 4))
        s = random_soul(CTX8, rng, terms=2, scale=0.1)
        spec = ToeplitzSpec((CTX8.scalar(1.0 + rng.random()) + s + dagger(s),))
        for _ in range(order):
            angle = rng.uniform(0, 2 * np.pi)
            eta = CTX8.scalar(0.5 * complex(np.cos(angle), np.sin(angle)))
            spec = extend(spec, eta + random_soul(CTX8, rng, terms=2, scale=0.1))
        params = extension_params(spec)
        if trial % 10 == 0:
            eta = CTX8.zero()  # the center (maximum-entropy analogue)
        else:
            angle = rng.uniform(0, 2 * np.pi)
            eta = CTX8.scalar(0.9 * complex(np.cos(angle), np.sin(angle)))
            eta = eta + random_soul(CTX8, rng, terms=2, scale=0.05)
        extended = extend(spec, eta, params)
        assert verify_extension(extended)
        assert is_superpositive(assemble(extended))
        # body quantities against the classical oracle
        bodies = [z.body for z in spec.r]
        c_cl, alpha_cl, xi_sq_cl = classical_toeplitz_extension(bodies)
        xi = params.right_radius
        lr = params.left_radius
        worst_body = max(
            worst_body,
            abs(params.center.body - c_cl),
            abs(mul(lr, lr).body - 1.0 / alpha_cl),
            abs(mul(xi, xi).body - xi_sq_cl),
        )
    assert worst_body <= 1e-9
    report(6, f"100 extensions verified; classical body gap {worst_body:.2e}")


def test_criterion_07_series_realization_coherence():
    ctx = AlgebraContext(generators=4)
    rng = np.random.default_rng(107)

    def rand_real(n, p, q, invertible_d=False):
        a_body = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a_body *= 0.5 / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
        base = np.zeros((p, q), dtype=complex)
        if invertible_d:
            base = 2 * np.eye(max(p, q))[:p, :q]
        return Realization(
            a=SuperMatrix.from_body(ctx, a_body)
            + random_supermatrix(ctx, rng, n, n, body=0.0, scale=0.2, terms=2, max_grade=2),
            b=random_supermatrix(ctx, rng, n, q, scale=0.3, terms=2, max_grade=2),
            c=random_supermatrix(ctx, rng, p, n, scale=0.3, terms=2, max_grade=2),
            d=SuperMatrix.from_body(ctx, base)
            + random_supermatrix(ctx, rng, p, q, scale=0.3, terms=2, max_grade=2, body=0.0),
        )

    worst_compose = 0.0
    for _ in range(3):
        r1 = rand_real(2, 2, 2)
        r2 = rand_real(3, 2, 2)
        f1, f2 = to_series(r1, 32), to_series(r2, 32)
        scale = max(1.0, f1.norm1() * f2.norm1())
        for mode in ("product", "sum", "concat_rows", "concat_cols"):
            got = to_series(compose(r1, r2, mode), 32)
            if mode == "product":
                want = star_mul(f1, f2)
            elif mode == "sum":
                want = f1 + f2
            elif mode == "concat_cols":
                want = SeriesMatrix(tuple(SuperMatrix.block([[a, b]]) for a, b in zip(f1.coeffs, f2.coeffs)))
            else:
                want = SeriesMatrix(tuple(SuperMatrix.block([[a], [b]]) for a, b in zip(f1.coeffs, f2.coeffs)))
            worst_compose = max(worst_compose, series_dist(got, want) / scale)
    worst_inverse = 0.0
    for _ in range(3):
        r = rand_real(2, 2, 2, invertible_d=True)
        f = to_series(r, 32)
        g = to_series(inverse_realization(r), 32)
        eye = SeriesMatrix.identity(ctx, 2)
        worst_inverse = max(
            worst_inverse,
            series_dist(star_mul(f, g), eye),
            series_dist(star_mul(g, f), eye),
        )
    assert worst_compose <= 1e-10
    assert worst_inverse <= 1e-9
    report(7, f"compose gap {worst_compose:.2e}, inverse residual {worst_inverse:.2e} at degree 32")


def test_criterion_08_theta_kernel_identity():
    ctx = AlgebraContext(generators=6)
    rng = np.random.default_rng(108)
    worst = 0.0
    produced = 0
    while produced < 20:
        q = int(rng.integers(1, 3))
        p = 2
        a_body = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        a_body *= 0.5 / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
        a = SuperMatrix.from_body(ctx, a_body) + random_supermatrix(
            ctx, rng, q, q, body=0.0, scale=0.1, terms=1, max_grade=2)
        c = random_supermatrix(ctx, rng, p, q, scale=0.5, terms=1, max_grade=2)
        j = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        pmat = stein_solve(c, a, j)
        # the identity divides by P twice: keep the Gram body away from singular
        if np.linalg.svd(pmat.body(), compute_uv=False)[-1] < 0.2:
            continue
        produced += 1
        theta = build_theta(c, a, pmat, j)
        for _ in range(8):
            z = random_even_unit(ctx, rng, body_modulus=rng.uniform(0.1, 0.45), soul_scale=0.05)
            w = random_even_unit(ctx, rng, body_modulus=rng.uniform(0.1, 0.45), soul_scale=0.05)
            worst = max(worst, kernel_identity_residual(theta, z, w) / max(1.0, pmat.norm1() ** 2))
    assert worst <= 1e-8
    report(8, f"kernel identity residual {worst:.2e} over 20 data sets x 8 sample pairs")


def test_criterion_09_nevanlinna_pick():
    rng = np.random.default_rng(109)
    worst_node = 0.0
    worst_interpo = 0.0
    worst_body = 0.0
    for n_nodes in (1, 2, 3, 4):
        c0 = CTX8.scalar(complex(rng.uniform(-0.35, 0.35), rng.uniform(-0.25, 0.25)))
        c1 = CTX8.scalar(complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)))
        generator = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_scalar(c0 + random_soul(CTX8, rng, terms=2, scale=0.08)),
             SuperMatrix.from_scalar(c1 + random_soul(CTX8, rng, terms=2, scale=0.08))], exact=True)
        nodes, values = [], []
        for k in range(n_nodes):
            angle = 2 * np.pi * (k + 0.5) / n_nodes
            body = rng.uniform(0.2, 0.5) * complex(np.cos(angle), np.sin(angle))
            z = CTX8.scalar(body) + random_soul(CTX8, rng, terms=2, scale=0.05)
            nodes.append(z)
            values.append(evaluate(generator, z)[0, 0])
        data = InterpolationData(tuple(nodes), tuple(values))
        solution = np_solve(data)
        worst_node = max(worst_node, max(solution.node_residuals))
        worst_interpo = max(worst_interpo, max(np_node_residuals(data, solution.theta)))
        # classical oracle on the body data
        oracle, _, pick_cl = classical_np_solution(
            [z.body for z in nodes], [s.body for s in values])
        worst_body = max(worst_body, float(np.abs(solution.pick.body() - pick_cl).max()))
        for lam in (0.15 + 0.1j, -0.2, 0.25j):
            got = evaluate(solution.series, CTX8.scalar(lam))[0, 0].body
            worst_body = max(worst_body, abs(got - oracle(lam)))
    assert worst_node <= 1e-8
    assert worst_interpo <= 1e-8
    assert worst_body <= 1e-9
    report(9, f"node residual {worst_node:.2e}, interpo {worst_interpo:.2e}, body gap {worst_body:.2e}")


def test_criterion_10_schur_algorithm():
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(10):
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        coeffs *= rng.uniform(0.5, 0.95) / np.sum(np.abs(coeffs))
        series = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_body(CTX8, [[c]]) for c in coeffs])
        chain = schur_algorithm(series, max_steps=6)
        expected, boundary = classical_schur(list(coeffs), steps=6)
        assert not boundary and chain.steps >= 5
        for got, want in zip(chain.rhos, expected):
            worst = max(worst, abs(got.body - want))
        soulful = SeriesMatrix.from_coeffs([
            SuperMatrix.from_scalar(CTX8.scalar(c) + random_soul(CTX8, rng, terms=2, scale=0.1))
            for c in coeffs])
        chain_s = schur_algorithm(soulful, max_steps=6)
        for got, want in zip(chain_s.rhos, expected):
            worst = max(worst, abs(got.body - want))
    assert worst <= 1e-9
    # boundary: a finite Blaschke product body halts with the documented error
    blaschke_body = SeriesMatrix.from_coeffs(
        [SuperMatrix.from_body(CTX8, [[b]]) for b in (0.0, 1.0, 0.0, 0.0)])
    chain = schur_algorithm(blaschke_body, max_steps=4)
    assert chain.termination == "rho_boundary"
    with pytest.raises(RhoNotContractive):
        schur_step(SeriesMatrix.from_coeffs([SuperMatrix.from_body(CTX8, [[1.0]]),
                                             SuperMatrix.from_body(CTX8, [[0.0]])]))
    report(10, f"body chains match the classical recursion to {worst:.2e}; boundary halts")


def test_criterion_11_blaschke():
    rng = np.random.default_rng(111)
    worst_zero = 0.0
    worst_fact = 0.0
    for _ in range(100):
        a = CTX8.scalar(complex(rng.uniform(-0.55, 0.55), rng.uniform(-0.4, 0.4)))
        a = a + random_soul(CTX8, rng, terms=2, scale=0.1)
        s = random_soul(CTX8, rng, terms=2, scale=0.1)
        p = CTX8.scalar(1.0 + rng.random()) + s + dagger(s)
        c = kth_root(p - mul(dagger(a), mul(p, a)), 2) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        factor = blaschke_factor(a, c, p)
        worst_zero = max(worst_zero, factor.zero_residual())
        worst_fact = max(worst_fact, series_dist(factor.series, factor.factorized_series()))
    assert worst_zero <= 1e-8
    assert worst_fact <= 1e-8
    ctx4 = AlgebraContext(generators=8, max_series_degree=4)
    trivial = blaschke_factor(ctx4.zero(), ctx4.one(), ctx4.one())
    assert trivial.series.coeffs[0].is_zero()
    assert trivial.series.coeffs[1][0, 0] == ctx4.one()
    assert all(c.is_zero() for c in trivial.series.coeffs[2:])
    report(11, f"zero residual {worst_zero:.2e}, factorization gap {worst_fact:.2e} on 100 triples")


def test_criterion_12_wiener_levy():
    ctx = AlgebraContext(generators=6)
    rng = np.random.default_rng(112)
    for _ in range(100):
        window = int(rng.integers(0, 3))
        body = {
            n: complex(rng.normal(), rng.normal()) * (0.3 if n else 1.0)
            for n in range(-window, window + 1)
        }
        base = LaurentSeries(
            max(window, 1),
            {n: SuperMatrix.from_body(ctx, [[v]]) for n, v in body.items()})
        soulful = LaurentSeries(
            max(window, 1),
            {n: SuperMatrix.from_scalar(ctx.scalar(v) + random_soul(ctx, rng, terms=2, scale=0.5))
             for n, v in body.items()})
        assert wiener_is_invertible(base) == wiener_is_invertible(soulful)
    worst = 0.0
    eye = SuperMatrix.identity(ctx, 1)
    for _ in range(20):
        body = {0: 2.0 + rng.normal() * 0.2, 1: 0.3 * complex(rng.normal(), rng.normal()),
                -1: 0.3 * complex(rng.normal(), rng.normal())}
        f = LaurentSeries(1, {
            n: SuperMatrix.from_scalar(ctx.scalar(v) + random_soul(ctx, rng, terms=2, scale=0.2, max_grade=2))
            for n, v in body.items()})
        g = wiener_invert(f)
        residual = laurent_star_mul(f, g) - LaurentSeries.constant(eye)
        inside = [c.norm1() for n, c in residual.coeffs.items() if abs(n) <= f.window]
        worst = max(worst, max(inside, default=0.0))
    assert worst <= 1e-9
    report(12, f"verdict soul-invariant on 100 fuzz cases; inverse residual {worst:.2e}")


def test_criterion_13_cli(tmp_path):
    from grasschur.cli import main
    from grasschur.serialization import (
        dumps,
        interpolation_data_to_obj,
        matrix_to_obj,
        series_to_obj,
        supernumber_to_obj,
        toeplitz_spec_to_obj,
    )

    ctx = CTX8

    def run_deterministic(argv_builder):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{np.random.default_rng(abs(hash(tag)) % 100).integers(1e6)}_{tag}.json"
            assert main(argv_builder(str(out))) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        return json.loads(outs[0])

    z_file = tmp_path / "z.json"
    z_file.write_text(dumps(supernumber_to_obj(ctx.one() + ctx.generator(1))))
    got = run_deterministic(lambda o: ["algebra", "invert", "--in", str(z_file), "--out", o])
    assert got == supernumber_to_obj(ctx.one() - ctx.generator(1))
    run_deterministic(lambda o: ["algebra", "classify", "--in", str(z_file), "--out", o])
    run_deterministic(lambda o: ["algebra", "sqrt", "--in", str(z_file), "--out", o])
    rhs = tmp_path / "r.json"
    rhs.write_text(dumps(supernumber_to_obj(ctx.one() - ctx.generator(1))))
    run_deterministic(lambda o: ["algebra", "mul", "--in", str(z_file), "--rhs", str(rhs), "--out", o])

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(dumps(toeplitz_spec_to_obj(ToeplitzSpec((ctx.scalar(1.0), ctx.scalar(0.4))))))
    eta_file = tmp_path / "eta.json"
    eta_file.write_text(dumps(supernumber_to_obj(ctx.scalar(0.3) + ctx.basis((1, 2)) * 0.1)))
    got = run_deterministic(lambda o: ["toeplitz", "extend", "--spec", str(spec_file),
                                       "--eta", str(eta_file), "--out", o])
    assert got["verified_superpositive"] is True

    data = InterpolationData(
        (ctx.scalar(0.2), ctx.scalar(-0.25j)),
        (ctx.scalar(0.2 + 0.5 * 0.2), ctx.scalar(0.2 + 0.5 * (-0.25j))),
    )
    data_file = tmp_path / "np.json"
    data_file.write_text(dumps(interpolation_data_to_obj(data)))
    got = run_deterministic(lambda o: ["np", "solve", "--data", str(data_file), "--seed", "5", "--out", o])
    assert max(got["node_residuals"]) <= 1e-8

    series_file = tmp_path / "s.json"
    series_file.write_text(dumps(series_to_obj(SeriesMatrix.from_coeffs(
        [SuperMatrix.from_body(ctx, [[b]]) for b in (0.5, 0.25, 0.0, 0.0, 0.0, 0.0)]))))
    got = run_deterministic(lambda o: ["schur", "run", "--series", str(series_file),
                                       "--max-steps", "3", "--out", o])
    expected, _ = classical_schur([0.5 + 0j, 0.25 + 0j, 0j, 0j, 0j, 0j], steps=3)
    for pair, want in zip(got["rho_bodies"], expected):
        assert abs(complex(pair["re"], pair["im"]) - want) <= 1e-9

    for name, value in (("ba.json", ctx.zero()), ("bc.json", ctx.one()),
                        ("bp.json", ctx.one()), ("bat.json", ctx.scalar(0.4))):
        (tmp_path / name).write_text(dumps(supernumber_to_obj(value)))
    got = run_deterministic(lambda o: [
        "blaschke", "eval", "--a", str(tmp_path / "ba.json"), "--c", str(tmp_path / "bc.json"),
        "--p", str(tmp_path / "bp.json"), "--at", str(tmp_path / "bat.json"), "--out", o])
    assert abs(complex(got["value"][0]["re"], got["value"][0]["im"]) - 0.4) <= 1e-9

    cfile = tmp_path / "tc.json"
    cfile.write_text(dumps(matrix_to_obj(SuperMatrix.from_rows(
        [[ctx.one()], [ctx.scalar(0.5)]]))))
    afile = tmp_path / "ta.json"
    afile.write_text(dumps(matrix_to_obj(SuperMatrix.from_body(ctx, [[0.4]]))))
    jfile = tmp_path / "tj.json"
    jfile.write_text(dumps(matrix_to_obj(SuperMatrix.from_body(ctx, np.diag([1.0, -1.0])))))
    got = run_deterministic(lambda o: ["theta", "build", "--C", str(cfile), "--A", str(afile),
                                       "--J", str(jfile), "--seed", "3", "--out", o])
    assert got["theta"]["degree"] == 32

    # domain errors exit with status 2
    soul_file = tmp_path / "soul.json"
    soul_file.write_text(dumps(supernumber_to_obj(ctx.generator(2))))
    assert main(["algebra", "invert", "--in", str(soul_file)]) == 2
    report(13, "all subcommands deterministic and round-tripping; exit codes 0/1/2")
