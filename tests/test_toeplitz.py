"""Toeplitz one-step extension and the superdisk parametrization."""
import json
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest

import grasschur.toeplitz as toeplitz
from grasschur import (AlgebraContext, SuperMatrix, Supernumber, classify, dagger, invert, kth_root, merge_swap_count,
                       mul)
from grasschur.cli import main
from grasschur.errors import ContextMismatch, EtaNotContractive, NotSuperpositive
from grasschur.matrix import adjoint, is_superpositive, mat_invert, mat_mul
from grasschur.oracle import classical_toeplitz_extension, classical_toeplitz_is_pd
from grasschur.sampling import random_soul, random_supernumber
from grasschur.serialization import dumps, supernumber_from_obj, supernumber_to_obj, toeplitz_spec_to_obj
from grasschur.toeplitz import (
    SuperdiskParams,
    ToeplitzSpec,
    alpha_from_params,
    assemble,
    extend,
    extension_params,
    verify_extension,
)


def spec_from_bodies(ctx, bodies):
    return ToeplitzSpec(tuple(ctx.scalar(b) for b in bodies))


def random_admissible_eta(ctx, rng, modulus=0.6):
    theta = rng.uniform(0, 2 * np.pi)
    body = modulus * complex(np.cos(theta), np.sin(theta))
    return ctx.scalar(body) + random_soul(ctx, rng, terms=2, scale=0.2)


def random_superpositive_spec(ctx, rng, order):
    """Grow a spec by repeated extension — superpositive by construction."""
    r0 = ctx.scalar(1.0 + rng.random())
    s = random_soul(ctx, rng, terms=2, scale=0.2)
    spec = ToeplitzSpec((r0 + s + dagger(s),))
    for _ in range(order):
        eta = random_admissible_eta(ctx, rng, modulus=float(rng.uniform(0, 0.7)))
        spec = extend(spec, eta)
    return spec


class TestAssemble:
    def test_order_zero(self, ctx):
        assert assemble(spec_from_bodies(ctx, [1.0])) == SuperMatrix.from_body(ctx, [[1.0]])

    def test_single_generator_symbol(self, ctx):
        i1 = ctx.generator(1)
        t = assemble(ToeplitzSpec((ctx.one(), i1)))
        # (i1)† = i1, so both off-diagonal entries coincide
        assert t[0, 1] == i1 and t[1, 0] == i1
        assert t[0, 0] == ctx.one() and t[1, 1] == ctx.one()

    def test_body_is_classical_toeplitz(self, ctx, rng):
        spec = random_superpositive_spec(ctx, rng, 3)
        body = assemble(spec).body()
        r = [z.body for z in spec.r]
        for j in range(4):
            for k in range(4):
                expected = r[k - j] if k >= j else np.conj(r[j - k])
                assert body[j, k] == pytest.approx(expected)


class TestExtensionParams:
    def test_identity_spec(self, ctx):
        params = extension_params(spec_from_bodies(ctx, [1.0, 0.0]))
        assert params.center.is_zero()
        assert params.left_radius == ctx.one()
        assert params.right_radius == ctx.one()

    def test_classical_bodies_match_oracle(self, ctx, rng):
        for _ in range(20):
            # classical feasible specs: start at 1, extend by small steps
            bodies = [1.0 + 0j]
            oracle_center, _, _ = classical_toeplitz_extension(bodies)
            step = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            bodies.append(oracle_center + step)
            for _ in range(int(rng.integers(0, 3))):
                c, alpha, xi_sq = classical_toeplitz_extension(bodies)
                scale = (xi_sq.real / alpha.real) ** 0.5
                bodies.append(c + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) * scale)
            if not classical_toeplitz_is_pd([complex(b) for b in bodies]):
                continue
            spec = spec_from_bodies(ctx, bodies)
            params = extension_params(spec)
            c_cl, alpha_cl, xi_sq_cl = classical_toeplitz_extension(bodies)
            assert params.center.body == pytest.approx(c_cl, abs=1e-9)
            assert alpha_from_params(params).body == pytest.approx(alpha_cl, abs=1e-9)
            xi = params.right_radius
            assert mul(xi, xi).body == pytest.approx(xi_sq_cl, abs=1e-9)

    def test_defining_identities_with_souls(self, ctx, rng):
        for _ in range(10):
            spec = random_superpositive_spec(ctx, rng, 2)
            params = extension_params(spec)
            t_prev = assemble(ToeplitzSpec(spec.r[:-1]))
            inner = mat_invert(t_prev)
            b = SuperMatrix.column(list(spec.r[:0:-1]))
            xi = params.right_radius
            lhs = mul(dagger(xi), xi)
            rhs = spec.r[0] - mat_mul(mat_mul(adjoint(b), inner), b)[0, 0]
            assert (lhs - rhs).norm1() <= 1e-9 * max(1.0, rhs.norm1())
            # xi is chosen superreal
            assert classify(xi).is_real

    def test_rejects_indefinite(self, ctx):
        with pytest.raises(NotSuperpositive, match="^body not positive definite$"):  # CLI stderr reads it
            extension_params(spec_from_bodies(ctx, [1.0, 2.0]))
        assert not verify_extension(spec_from_bodies(ctx, [1.0, 2.0]))


class TestExtend:
    def test_center_choice(self, ctx, rng):
        spec = random_superpositive_spec(ctx, rng, 1)
        params = extension_params(spec)
        extended = extend(spec, ctx.zero(), params)
        assert extended.r[-1] == params.center
        assert verify_extension(extended)

    def test_random_souls_stay_superpositive(self, ctx, rng):
        for _ in range(10):
            spec = random_superpositive_spec(ctx, rng, int(rng.integers(0, 3)))
            eta = random_admissible_eta(ctx, rng, modulus=0.9)
            extended = extend(spec, eta)
            assert verify_extension(extended)
            assert is_superpositive(assemble(extended))

    def test_classical_agreement(self, ctx, rng):
        bodies = [1.0 + 0j, 0.5 + 0j]
        spec = spec_from_bodies(ctx, bodies)
        eta_val = 0.3 + 0.1j
        extended = extend(spec, ctx.scalar(eta_val))
        c, alpha, xi_sq = classical_toeplitz_extension(bodies)
        expected = c + (alpha.real ** -0.5) * eta_val * (xi_sq.real ** 0.5)
        assert extended.r[-1].body == pytest.approx(expected, abs=1e-9)

    def test_chain_checks_r0_once(self, ctx, rng, monkeypatch):
        calls = []

        def counted(z):
            calls.append(z)
            return classify(z)

        monkeypatch.setattr(toeplitz, "classify", counted)
        spec = random_superpositive_spec(ctx, rng, 3)
        assert spec.order == 3 and len(calls) == 1 and calls[0] == spec.r[0]
        assert verify_extension(spec)
        with pytest.raises(ValueError, match="r_0 must be superreal"):
            ToeplitzSpec((ctx.scalar(1.0j),))

    def test_eta_boundary_rejected(self, ctx, rng):
        spec = random_superpositive_spec(ctx, rng, 1)
        with pytest.raises(EtaNotContractive):
            extend(spec, ctx.scalar(1.0))

    def test_symbols_of_two_contexts_are_refused(self):
        # verify_extension reads bodies only and would pass such a spec; extension_params would not
        ctx8, ctx64 = AlgebraContext(8), AlgebraContext(64)
        with pytest.raises(ContextMismatch):
            ToeplitzSpec((ctx8.scalar(1.0), ctx64.scalar(0.3)))
        spec = ToeplitzSpec((ctx8.scalar(1.0), ctx8.scalar(0.3)))
        with pytest.raises(ContextMismatch):
            spec.extended(ctx64.scalar(0.1))
        with pytest.raises(ContextMismatch):
            extend(spec, ctx64.scalar(0.1))
        assert spec.extended(ctx8.scalar(0.1)).order == 2


class TestVerify:
    def test_identity(self, ctx):
        assert verify_extension(spec_from_bodies(ctx, [1.0, 0.0, 0.0]))

    def test_classical_failure(self, ctx):
        assert not verify_extension(spec_from_bodies(ctx, [1.0, 2.0]))

    def test_superdisk_membership_decoupled_from_norm(self, ctx):
        # a = (1 + lambda*i1)/2 is accepted for every lambda even though its
        # 1-norm grows without bound
        spec = spec_from_bodies(ctx, [1.0])
        for lam in (1.0, 10.0, 1e3):
            a = (ctx.one() + ctx.generator(1) * lam) * 0.5
            zz = mul(a, dagger(a))
            one_minus = ctx.one() - zz
            assert classify(one_minus).is_superpositive
            assert a.norm1() == pytest.approx((1 + lam) / 2)


def schur_complement_verdict(spec):
    """Reference route: T_{N-1} superpositive and r_0 - b* T_{N-1}⁻¹ b a positive supernumber."""
    if spec.order == 0:
        return classify(spec.r[0]).is_superpositive
    leading = assemble(ToeplitzSpec(spec.r[:-1]))
    if not is_superpositive(leading):
        return False
    b = SuperMatrix.column(list(spec.r[:0:-1]))
    xi_sq = spec.r[0] - mat_mul(mat_mul(adjoint(b), mat_invert(leading)), b)[0, 0]
    return classify(xi_sq).is_superpositive


class TestVerifyAgainstSchurComplement:
    @pytest.mark.parametrize("generators", [8, 64])
    def test_random_specs_agree(self, generators):
        ctx = AlgebraContext(generators=generators)
        rng = np.random.default_rng(generators)
        verdicts = []
        for _ in range(120):
            spec = random_superpositive_spec(ctx, rng, int(rng.integers(1, 4)))
            # push one symbol by a random amount: small pushes stay inside, large leave
            m = int(rng.integers(1, spec.order + 1))
            push = ctx.scalar(complex(*rng.normal(size=2)) * rng.uniform(0, 0.8))
            symbols = list(spec.r)
            symbols[m] = symbols[m] + push + random_soul(ctx, rng, terms=2, scale=0.1)
            spec = ToeplitzSpec(tuple(symbols))
            verdict = verify_extension(spec)
            assert verdict == schur_complement_verdict(spec)
            verdicts.append(verdict)
        assert any(verdicts) and not all(verdicts)


def ref_extension_params(spec):
    """The superdisk from T_{N-1} assembled on its own and four separate products."""
    report = is_superpositive(assemble(spec))
    if not report:
        raise NotSuperpositive(report.reason or "Toeplitz matrix is not superpositive")
    r = spec.r
    if spec.order == 0:
        center, alpha_inv, xi_sq = spec.context.zero(), r[0], r[0]
    else:
        inner = mat_invert(assemble(ToeplitzSpec(r[:-1])))
        a = SuperMatrix.row(list(r[1:]))
        b = SuperMatrix.column(list(r[:0:-1]))
        a_inner = mat_mul(a, inner)
        alpha_inv = r[0] - mat_mul(a_inner, adjoint(a))[0, 0]
        center = mat_mul(a_inner, b)[0, 0]
        xi_sq = r[0] - mat_mul(mat_mul(adjoint(b), inner), b)[0, 0]
    return SuperdiskParams(center, kth_root(alpha_inv, 2), kth_root(xi_sq, 2))


def filled_soul(ctx, rng, scale):
    """A soul on every monomial of ctx (N = 8: 255 terms)."""
    return Supernumber(ctx, {k: scale * complex(*rng.normal(size=2)) for k in range(1, 1 << ctx.generators)})


def block_complement_specs(generators, order, count):
    """Superpositive specs of one order: filled souls at N = 8, 2-term souls at N = 64."""
    ctx = AlgebraContext(generators=generators)
    rng = np.random.default_rng([generators, order])
    specs = []
    for _ in range(count):
        if generators == 8:
            s = filled_soul(ctx, rng, 0.02)
            spec = ToeplitzSpec((ctx.scalar(1.0 + rng.random()) + s + dagger(s),))
            for _ in range(order):
                eta = ctx.scalar(0.7 * rng.random() * np.exp(2j * np.pi * rng.random()))
                spec = extend(spec, eta + filled_soul(ctx, rng, 0.01))
        else:
            spec = random_superpositive_spec(ctx, rng, order)
        specs.append(spec)
    return specs


def assert_params_close(got, want, tol=1e-12):
    for name in ("center", "left_radius", "right_radius"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g - w).norm1() <= tol * max(1.0, w.norm1()), name


class TestBlockComplement:
    """The superdisk as one 2x2 Schur complement matches the four-product reference."""

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    @pytest.mark.parametrize("generators", [8, 64])
    def test_matches_reference(self, generators, order):
        for spec in block_complement_specs(generators, order, 4):
            assert spec.order == order
            assert_params_close(extension_params(spec), ref_extension_params(spec))

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_cli_params_match_reference(self, tmp_path, order):
        spec = block_complement_specs(8, order, 1)[0]
        ctx = spec.context
        spec_file = tmp_path / "spec.json"
        eta_file = tmp_path / "eta.json"
        out_file = tmp_path / "out.json"
        spec_file.write_text(dumps(toeplitz_spec_to_obj(spec)))
        eta_file.write_text(dumps(supernumber_to_obj(ctx.scalar(0.3))))
        assert main(["toeplitz", "extend", "--spec", str(spec_file), "--eta", str(eta_file),
                     "--out", str(out_file)]) == 0
        got = json.loads(out_file.read_text())["superdisk"]
        want = ref_extension_params(spec)
        assert_params_close(SuperdiskParams(*(supernumber_from_obj(got[name], ctx)
                                              for name in ("center", "left_radius", "right_radius"))), want)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_no_assembly_no_inverse_no_product_no_scan(self, monkeypatch, order):
        import grasschur.matrix as matrix
        spec = block_complement_specs(64, order, 1)[0]
        calls = {"assemble": 0, "mat_invert": 0, "mat_mul": 0, "_self_adjoint": 0, "ToeplitzSpec": 0}

        def counted(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)
            return wrapper

        monkeypatch.setattr(toeplitz, "assemble", counted("assemble", toeplitz.assemble))
        for name in ("mat_invert", "mat_mul", "_self_adjoint"):
            monkeypatch.setattr(matrix, name, counted(name, getattr(matrix, name)))
        monkeypatch.setattr(ToeplitzSpec, "__post_init__", counted("ToeplitzSpec", ToeplitzSpec.__post_init__))
        extension_params(spec)
        extension_params(ToeplitzSpec(spec.r))
        assert calls == {"assemble": 0, "mat_invert": 0, "mat_mul": 0, "_self_adjoint": 0, "ToeplitzSpec": 1}


def grown_specs(generators, top, count):
    """block_complement_specs of every order 0..top: each spec grown from r_0 by extend."""
    return [spec for order in range(top + 1) for spec in block_complement_specs(generators, order, count)]


def count_levinson_steps(monkeypatch):
    steps, step = [], toeplitz._levinson_step

    def counted(state, r):
        steps.append(len(state.f))
        return step(state, r)

    monkeypatch.setattr(toeplitz, "_levinson_step", counted)
    return steps


class TestLevinsonCarry:
    """extend hands T_N's predictors to the spec it builds, and the recursion resumes from them."""

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_chain_of_extends_takes_one_step_each(self, monkeypatch, length):
        ctx = AlgebraContext(generators=64)
        rng = np.random.default_rng([64, length])
        spec = random_superpositive_spec(ctx, rng, 0)
        steps = count_levinson_steps(monkeypatch)
        for _ in range(length):
            spec = extend(spec, random_admissible_eta(ctx, rng), extension_params(spec))
        extension_params(spec)
        assert steps == list(range(length))
        steps.clear()
        extension_params(ToeplitzSpec(spec.r))  # the same symbols, built directly: the whole recursion
        assert steps == list(range(spec.order))

    @pytest.mark.parametrize("generators", [8, 64])
    def test_carried_params_equal_recomputed_bit_for_bit(self, generators):
        for spec in grown_specs(generators, 5, 2):
            assert (spec._levinson is None) == (spec.order == 0)
            fresh = ToeplitzSpec(spec.r)
            assert fresh._levinson is None
            carried, recomputed = extension_params(spec), extension_params(fresh)
            for name in ("center", "left_radius", "right_radius"):
                assert getattr(carried, name) == getattr(recomputed, name), (spec.order, name)
            assert carried == recomputed and hash(carried) == hash(recomputed)
            assert repr(carried) == repr(recomputed)
            assert spec == fresh and hash(spec) == hash(fresh) and repr(spec) == repr(fresh)
            assert dumps(toeplitz_spec_to_obj(spec)) == dumps(toeplitz_spec_to_obj(fresh))
            assert fresh._levinson is None  # extension_params writes nothing onto its argument

    @pytest.mark.parametrize("generators", [8, 64])
    def test_params_of_another_spec_carry_nothing(self, generators):
        a, b = block_complement_specs(generators, 3, 2)
        eta = b.context.scalar(0.3j)
        foreign = extend(b, eta, extension_params(a))
        assert foreign._levinson is None
        assert extension_params(foreign) == extension_params(ToeplitzSpec(foreign.r))
        twin = extend(b, eta, extension_params(ToeplitzSpec(list(b.r))))  # equal symbols, another tuple
        assert twin._levinson is None and twin == extend(b, eta)

    @pytest.mark.parametrize("generators", [8, 64])
    def test_bodies_match_the_classical_recursion(self, generators):
        for spec in grown_specs(generators, 6, 2):
            params = extension_params(spec)
            b = [z.body for z in spec.r]
            center, alpha, xi_sq = classical_toeplitz_extension(b)
            xi = params.right_radius
            assert abs(params.center.body - center) <= 1e-12
            assert abs(alpha_from_params(params).body - alpha) <= 1e-12 * abs(alpha)
            assert abs(mul(xi, xi).body - xi_sq) <= 1e-12 * abs(xi_sq)
            # the predictor rows' bodies solve f T = [P, 0, …, 0] and g T = [0, …, 0, Q] on the bodies
            n, state = len(b), params._levinson
            t = np.array([[b[k - j] if k >= j else np.conj(b[j - k]) for k in range(n)] for j in range(n)])
            f = np.array([1.0] + [z.body for z in state.f])
            g = np.array([z.body for z in state.g] + [1.0])
            assert np.abs(f @ t - np.eye(n)[0] * state.p.body).max() <= 1e-12
            assert np.abs(g @ t - np.eye(n)[-1] * state.q.body).max() <= 1e-12


def with_r0_defect(spec, rng, share=0.2):
    """The spec with r_0 moved off the reals by `share` of the defect ToeplitzSpec allows."""
    ctx = spec.context
    x = random_soul(ctx, rng, terms=2, scale=1.0)
    anti = x - dagger(x)  # anti-self-adjoint: its defect is 2 ||anti||_1
    r0 = spec.r[0]
    step = share * 1e-12 * max(1.0, r0.norm1()) / (2 * anti.norm1())
    return ToeplitzSpec((r0 + anti * step,) + spec.r[1:])


def count_scans_and_assemblies(monkeypatch):
    """Count every self-adjointness scan (matrix._self_adjoint) and every toeplitz.assemble."""
    import grasschur.matrix as matrix
    calls = {"_self_adjoint": 0, "assemble": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(matrix, "_self_adjoint", counted("_self_adjoint", matrix._self_adjoint))
    monkeypatch.setattr(toeplitz, "assemble", counted("assemble", toeplitz.assemble))
    return calls


class TestSelfAdjointByConstruction:
    """T_N - T_N* is I ⊗ (r_0 - r_0†), so the body alone decides superpositivity."""

    @pytest.mark.parametrize("generators", [8, 64])
    def test_defect_is_r0_defect_on_the_diagonal(self, generators):
        ctx = AlgebraContext(generators=generators)
        rng = np.random.default_rng([generators, 30])
        specs = [random_superpositive_spec(ctx, rng, order) for order in (0, 1, 2, 3) for _ in range(3)]
        if generators == 8:
            specs += [spec for order in (1, 2, 3) for spec in block_complement_specs(8, order, 2)]
        specs += [with_r0_defect(spec, rng) for spec in specs]
        for spec in specs:
            t = assemble(spec)
            r0_defect = spec.r[0] - dagger(spec.r[0])
            assert t - adjoint(t) == SuperMatrix.diagonal([r0_defect] * (spec.order + 1))
        assert any(not (s.r[0] - dagger(s.r[0])).is_zero() for s in specs)

    def test_r0_defect_within_spec_tolerance_is_accepted(self, ctx):
        # 8e-13 of defect in r_0 passes ToeplitzSpec; T - T* holds four copies of it, 3.2e-12,
        # which a scan of T_N against 1e-12 ||T_N||_1 (about 2.1e-12) refused
        symbols = (ctx.scalar(0.5) + ctx.basis([1, 2]) * 4e-13,) + (ctx.scalar(0.01),) * 3
        spec = ToeplitzSpec(symbols)
        clean = ToeplitzSpec((ctx.scalar(0.5),) + symbols[1:])
        assert verify_extension(spec)
        assert_params_close(extension_params(spec), extension_params(clean), tol=1e-11)

    @pytest.mark.parametrize("order", [0, 1, 3])
    def test_verify_extension_neither_assembles_nor_scans(self, monkeypatch, order):
        spec = block_complement_specs(64, order, 1)[0]
        calls = count_scans_and_assemblies(monkeypatch)
        assert verify_extension(spec) is True
        assert calls == {"_self_adjoint": 0, "assemble": 0}


# A 50-digit reference of the Levinson chain: a supernumber is {key: (re, im)} in Decimal.
def to_decimal(z):
    return {k: (Decimal(v.real), Decimal(v.imag)) for k, v in z.terms.items()}


def d_sum(*pairs):
    """Σ c z over the (c, z) pairs."""
    out = {}
    for c, z in pairs:
        for k, (x, y) in z.items():
            re, im = out.get(k, (0, 0))
            out[k] = (re + c * x, im + c * y)
    return {k: v for k, v in out.items() if v != (0, 0)}


def d_mul(z, w):
    out = {}
    for a, (x, y) in z.items():
        for b, (u, v) in w.items():
            if not a & b:
                s = -1 if merge_swap_count(a, b) & 1 else 1
                re, im = out.get(a | b, (0, 0))
                out[a | b] = (re + s * (x * u - y * v), im + s * (x * v + y * u))
    return {k: v for k, v in out.items() if v != (0, 0)}


def d_dagger(z):
    return {k: (-x, y) if k.bit_count() & 2 else (x, -y) for k, (x, y) in z.items()}


def d_series(z, coeffs, scale):
    """scale · Σ c_n (z_S / z_B)^n, the c_n drawn from coeffs until a power vanishes."""
    bx, by = z[0]
    m = bx * bx + by * by
    u = d_mul({k: v for k, v in z.items() if k}, {0: (bx / m, -by / m)})
    out, power = {}, {0: (Decimal(1), Decimal(0))}
    for c in coeffs:
        if not power:
            return d_mul(out, {0: scale})
        out, power = d_sum((1, out), (c, power)), d_mul(power, u)


def d_inverse(z):
    bx, by = z[0]
    m = bx * bx + by * by
    return d_series(z, ((-1) ** n for n in range(66)), (bx / m, -by / m))


def d_sqrt(z):
    bx, by = z[0]
    re = (((bx * bx + by * by).sqrt() + bx) / 2).sqrt()
    binomial = [Decimal(1)]
    for n in range(65):
        binomial.append(binomial[-1] * (Decimal(1) / 2 - n) / (n + 1))
    return d_series(z, binomial, (re, by / (2 * re)))


def d_modulus(v):
    return (v[0] * v[0] + v[1] * v[1]).sqrt()


def reference_chain(r0, etas):
    """r_1.. and each step's (center, left radius, right radius) of extend's chain from r_0, in 50 digits."""
    r, f, g, c, steps = [to_decimal(r0)], [], [], {}, []
    p = q = r[0]
    for eta in etas:
        m = len(f)
        if len(r) > 1:  # the predictors of T_{m+1} from those of T_m
            df = d_sum((1, r[m + 1]), (-1, c))
            dg = d_dagger(df)
            kf, kg = d_mul(df, d_inverse(q)), d_mul(dg, d_inverse(p))
            f, g = ([d_sum((1, fk), (-1, d_mul(kf, gk))) for fk, gk in zip(f, g)] + [d_sum((-1, kf))],
                    [d_sum((-1, kg))] + [d_sum((1, gk), (-1, d_mul(kg, fk))) for gk, fk in zip(g, f)])
            p, q = d_sum((1, p), (-1, d_mul(kf, dg))), d_sum((1, q), (-1, d_mul(kg, df)))
            c = d_sum(*((-1, d_mul(fk, r[m + 1 - k])) for k, fk in enumerate(f)))
        left, right = d_sqrt(p), d_sqrt(q)
        steps.append((c, left, right))
        r.append(d_sum((1, c), (1, d_mul(d_mul(left, to_decimal(eta)), right))))
    return r[1:], steps


class TestExactSupport:
    """The chain keeps no term that is zero in exact arithmetic: at N = 64 with mixed-parity souls, rounding
    leaves residues of about 1e-17 on most keys of an order-3 symbol, and `_settled` drops them."""

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_order_three_chain_has_the_exact_support(self, i):
        ctx = AlgebraContext(generators=64)
        rng = np.random.default_rng([64, 3, i])  # drawn as the bench's toeplitz_chain inputs are
        s = random_soul(ctx, rng, terms=3, scale=0.1)
        r0 = ctx.scalar(1.0 + rng.random()) + s + dagger(s)
        etas = [ctx.scalar((0.3 + 0.6 * rng.random()) * np.exp(2j * np.pi * rng.random()))
                + random_soul(ctx, rng, terms=2, scale=0.1) for _ in range(3)]
        assert {k.bit_count() % 2 for z in (s, *etas) for k in z.terms if k} == {0, 1}
        spec, steps = ToeplitzSpec((r0,)), []
        for eta in etas:
            steps.append(extension_params(spec))
            spec = extend(spec, eta, steps[-1])
        with localcontext(Context(prec=50)):
            symbols, ref_steps = reference_chain(r0, etas)
            pairs = list(zip(spec.r[1:], symbols))
            for params, ref in zip(steps, ref_steps):
                pairs += zip((params.center, params.left_radius, params.right_radius), ref)
            for z, ref in pairs:
                norm = sum(map(d_modulus, ref.values()))
                assert set(z.terms) == {k for k, v in ref.items() if d_modulus(v) > Decimal("1e-30") * norm}
                assert sum(map(d_modulus, d_sum((1, to_decimal(z)), (-1, ref)).values())) <= Decimal("1e-14") * norm
