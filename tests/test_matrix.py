"""Supermatrix algebra: adjoint, products, LDU, inversion, positivity."""
import functools
import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from grasschur import (
    AlgebraContext,
    SuperMatrix,
    Supernumber,
    adjoint,
    classify,
    dagger,
    index_from_generators,
    invert,
    is_supernonnegative,
    is_superpositive,
    kth_root,
    ldu_factor,
    linear_combine,
    mat_invert,
    mat_mul,
    mul,
    polarization_reconstruct,
    positive_factorize,
    quadratic_form,
)
import grasschur.algebra as ga
import grasschur.matrix as gm
import grasschur.series as gse
import grasschur
from grasschur.errors import BodySingular, BodyZero, ContextMismatch, NotRegular, NotSuperpositive, ShapeMismatch
from grasschur.matrix import sandwich_solve
from grasschur.sampling import (
    random_soul,
    random_supermatrix,
    random_supernumber,
    random_superpositive_matrix,
)
from grasschur.series import LaurentSeries, SeriesMatrix, star_inverse, wiener_invert


def residual(a, b):
    return (a - b).norm1()


class TestAdjoint:
    def test_identity(self, ctx):
        i3 = SuperMatrix.identity(ctx, 3)
        assert adjoint(i3) == i3

    def test_single_generator_entry(self, ctx):
        m = SuperMatrix.from_scalar(ctx.generator(1))
        assert adjoint(m) == m

    def test_involution(self, ctx, rng):
        for _ in range(20):
            m = random_supermatrix(ctx, rng, 3, 2)
            assert adjoint(adjoint(m)) == m

    def test_product_rule(self, ctx, rng):
        for _ in range(20):
            m = random_supermatrix(ctx, rng, 2, 3)
            l = random_supermatrix(ctx, rng, 3, 2)
            lhs = adjoint(mat_mul(m, l))
            rhs = mat_mul(adjoint(l), adjoint(m))
            assert residual(lhs, rhs) <= 1e-12 * m.norm1() * l.norm1()

    @pytest.mark.parametrize("generators", [8, 64])
    def test_entries_are_daggers(self, generators):
        ctx = AlgebraContext(generators=generators)
        rng = np.random.default_rng(generators)
        # one monomial of each grade 1-4 on the last generators, so every grade mod 4 and bit N - 1 occur
        monomials = [ctx.basis(tuple(range(generators - t + 1, generators + 1))) for t in (1, 2, 3, 4)]
        for _ in range(10):
            extra = [[linear_combine((complex(*rng.normal(size=2)), e) for e in monomials) for _ in range(3)]
                     for _ in range(2)]
            m = random_supermatrix(ctx, rng, 2, 3) + SuperMatrix.from_rows(extra)
            star = adjoint(m)
            assert star.shape == (3, 2)
            for j in range(2):
                for k in range(3):
                    assert star[k, j] == dagger(m[j, k])


class TestMatMul:
    def test_identity_neutral(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 3, 3)
        assert residual(mat_mul(m, SuperMatrix.identity(ctx, 3)), m) == 0

    def test_body_is_morphism(self, ctx, rng):
        for _ in range(20):
            m = random_supermatrix(ctx, rng, 2, 3)
            l = random_supermatrix(ctx, rng, 3, 4)
            assert np.allclose(mat_mul(m, l).body(), m.body() @ l.body(), atol=1e-12)

    def test_one_by_one_is_scalar_mul(self, ctx, rng):
        z = random_supernumber(ctx, rng)
        w = random_supernumber(ctx, rng)
        prod = mat_mul(SuperMatrix.from_scalar(z), SuperMatrix.from_scalar(w))
        assert prod[0, 0] == mul(z, w)

    def test_shape_mismatch(self, ctx, rng):
        with pytest.raises(ShapeMismatch):
            mat_mul(random_supermatrix(ctx, rng, 2, 3), random_supermatrix(ctx, rng, 2, 3))


class TestBlock:
    def test_none_block_is_the_explicit_zero_block(self, ctx, rng):
        a, b, c = (random_supermatrix(ctx, rng, *shape) for shape in ((2, 3), (2, 1), (1, 1)))
        got = SuperMatrix.block([[a, b], [None, c]])
        want = SuperMatrix.block([[a, b], [SuperMatrix.zeros(ctx, 1, 3), c]])
        assert got.keys.tobytes() == want.keys.tobytes() and got.stack.tobytes() == want.stack.tobytes()
        assert got.submatrix(range(2), range(3)) == a and got.submatrix(range(2), [3]) == b
        assert got.submatrix([2], range(3)).is_zero() and got.submatrix([2], [3]) == c

    def test_width_mismatch_down_a_block_column(self, ctx, rng):
        with pytest.raises(ShapeMismatch) as err:
            SuperMatrix.block([[random_supermatrix(ctx, rng, 2, 2)], [random_supermatrix(ctx, rng, 1, 3)]])
        assert err.value.code == "shape-mismatch"

    def test_height_mismatch_along_a_block_row(self, ctx, rng):
        with pytest.raises(ShapeMismatch):
            SuperMatrix.block([[random_supermatrix(ctx, rng, 2, 2), random_supermatrix(ctx, rng, 1, 2)]])

    def test_blocks_of_two_contexts(self, ctx, ctx4):
        with pytest.raises(ContextMismatch) as err:
            SuperMatrix.block([[SuperMatrix.identity(ctx, 1), SuperMatrix.identity(ctx4, 1)]])
        assert err.value.code == "context-mismatch"

    @pytest.mark.parametrize("grid", ["none_row", "none_column", "ragged", "ragged_first_short", "empty", "empty_row"])
    def test_malformed_grid(self, ctx, grid):
        one = SuperMatrix.identity(ctx, 1)
        blocks = {"none_row": [[one, one], [None, None]], "none_column": [[one, None], [one, None]],
                  "ragged": [[one, one], [one]], "ragged_first_short": [[one], [one, one]],
                  "empty": [], "empty_row": [[]]}[grid]
        with pytest.raises(ShapeMismatch) as err:
            SuperMatrix.block(blocks)
        assert err.value.code == "shape-mismatch"


class TestLDU:
    def test_identity(self, ctx):
        i3 = SuperMatrix.identity(ctx, 3)
        f = ldu_factor(i3)
        assert f.lower == i3 and f.diagonal == i3 and f.upper == i3

    def test_two_by_two_soul_offdiag(self, ctx):
        i1 = ctx.generator(1)
        m = SuperMatrix.from_rows([
            [ctx.scalar(2.0), i1],
            [dagger(i1), ctx.scalar(3.0)],
        ])
        f = ldu_factor(m)
        assert residual(f.reconstruct(), m) <= 1e-9 * m.norm1()

    def test_unitriangular_and_reconstruction(self, ctx, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = SuperMatrix.identity(ctx, n) + random_supermatrix(ctx, rng, n, n, scale=0.2)
            f = ldu_factor(m)
            for i in range(n):
                assert f.lower[i, i] == ctx.one()
                assert f.upper[i, i] == ctx.one()
                for j in range(i + 1, n):
                    assert f.lower[i, j].is_zero()
                    assert f.upper[j, i].is_zero()
            assert residual(f.reconstruct(), m) <= 1e-9 * m.norm1()

    def test_not_regular_reports_first_minor(self, ctx):
        m = SuperMatrix.from_body(ctx, np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotRegular) as err:
            ldu_factor(m)
        assert err.value.minor == 1

    @pytest.mark.parametrize("bodies", [(1e6, 1e-11), (1e6, 1e-11, 1.0)], ids=["last", "middle"])
    def test_tiny_pivot_is_body_zero(self, ctx, rng, bodies):
        # every leading minor passes (|det| >= 1e-5), but one pivot's body is 1e-11
        n = len(bodies)
        m = SuperMatrix.from_body(ctx, np.diag(bodies)) + random_supermatrix(ctx, rng, n, n, body=0.0)
        with pytest.raises(BodyZero):
            ldu_factor(m)

    def test_pivots_are_supernumbers_and_the_last_is_never_inverted(self, ctx, rng, monkeypatch):
        def refused(*args):
            raise AssertionError("LDU pivots need no matrix inverse")

        inverted = []
        monkeypatch.setattr(gm, "mat_invert", refused)
        monkeypatch.setattr(gm, "invert", lambda z: inverted.append(z) or invert(z))
        m = SuperMatrix.identity(ctx, 4) + random_supermatrix(ctx, rng, 4, 4, scale=0.2)
        f = ldu_factor(m)
        assert inverted == [f.diagonal[k, k] for k in range(3)]
        assert residual(f.reconstruct(), m) <= 1e-9 * m.norm1()


class TestInvert:
    def test_nilpotent_soul(self, ctx):
        n = SuperMatrix.from_rows([
            [ctx.zero(), ctx.generator(1)],
            [ctx.zero(), ctx.zero()],
        ])
        m = SuperMatrix.identity(ctx, 2) + n
        assert residual(mat_invert(m), SuperMatrix.identity(ctx, 2) - n) <= 1e-12

    def test_diagonal(self, ctx):
        m = SuperMatrix.diagonal([ctx.scalar(2.0), ctx.one() + ctx.basis((1, 2))])
        expected = SuperMatrix.diagonal([ctx.scalar(0.5), ctx.one() - ctx.basis((1, 2))])
        assert residual(mat_invert(m), expected) <= 1e-12

    def test_two_sided_residual(self, ctx, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = SuperMatrix.from_body(ctx, np.eye(n) * 2 + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
            m = m + random_supermatrix(ctx, rng, n, n, scale=0.4, body=0.0)
            mi = mat_invert(m)
            eye = SuperMatrix.identity(ctx, n)
            assert residual(mat_mul(m, mi), eye) <= 1e-9 * max(1.0, m.norm1())
            assert residual(mat_mul(mi, m), eye) <= 1e-9 * max(1.0, m.norm1())

    def test_agrees_with_ldu_solve(self, ctx, rng):
        for _ in range(10):
            n = 4
            m = SuperMatrix.identity(ctx, n) * 2 + random_supermatrix(ctx, rng, n, n, scale=0.2)
            f = ldu_factor(m)
            diag_inv = SuperMatrix.diagonal([mat_invert(SuperMatrix.from_scalar(f.diagonal[i, i]))[0, 0] for i in range(n)])
            li = mat_invert(f.lower)
            ui = mat_invert(f.upper)
            via_ldu = mat_mul(mat_mul(ui, diag_inv), li)
            assert residual(mat_invert(m), via_ldu) <= 1e-9 * max(1.0, m.norm1())

    def test_singular_body(self, ctx):
        m = SuperMatrix.from_body(ctx, np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(BodySingular):
            mat_invert(m)


class TestSandwichSolve:
    def test_matches_term_by_term_sum_non_square(self, ctx, rng):
        for _ in range(3):
            l = SuperMatrix.from_body(ctx, 0.3 * (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))))
            l = l + random_supermatrix(ctx, rng, 2, 2, body=0.0, scale=0.2, terms=3)
            r = SuperMatrix.from_body(ctx, 0.3 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
            r = r + random_supermatrix(ctx, rng, 3, 3, body=0.0, scale=0.2, terms=3)
            q = random_supermatrix(ctx, rng, 2, 3, terms=3)
            x = sandwich_solve(l, q, r)
            total, term = q, q
            for _ in range(150):
                term = mat_mul(l, mat_mul(term, r))
                total = total + term
            assert residual(x, total) <= 1e-12 * max(1.0, x.norm1())
            assert residual(x - mat_mul(l, mat_mul(x, r)), q) <= 1e-13 * max(1.0, x.norm1())

    def test_eigenvalue_product_one_is_body_singular(self, ctx):
        l = SuperMatrix.diagonal([ctx.scalar(2.0) + ctx.generator(1), ctx.scalar(0.3)])
        r = SuperMatrix.from_scalar(ctx.scalar(0.5))
        with pytest.raises(BodySingular):
            sandwich_solve(l, SuperMatrix.column([ctx.one(), ctx.one()]), r)

    def test_shape_mismatch(self, ctx):
        eye = SuperMatrix.identity(ctx, 2)
        with pytest.raises(ShapeMismatch):
            sandwich_solve(eye, SuperMatrix.zeros(ctx, 3, 2), eye)


class TestPositivity:
    def test_identity_superpositive(self, ctx):
        assert is_superpositive(SuperMatrix.identity(ctx, 3))

    def test_soul_perturbed_identity(self, ctx, rng):
        # I + A + A* with A all-soul: self-adjoint by construction, body I
        a = random_supermatrix(ctx, rng, 3, 3, body=0.0, scale=0.3)
        m = SuperMatrix.identity(ctx, 3) + a + adjoint(a)
        assert is_superpositive(m)

    def test_not_self_adjoint_certificate(self, ctx):
        m = SuperMatrix.from_body(ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))
        report = is_supernonnegative(m)
        assert not report
        assert report.reason == "not self-adjoint"

    def test_self_adjoint_defect_is_the_stack_difference(self, ctx, rng):
        m = random_supermatrix(ctx, rng, 3, 3)
        assert gm._self_adjoint(m)[1] == pytest.approx((m - adjoint(m)).norm1(), rel=1e-14)
        h = m + adjoint(m)
        assert gm._self_adjoint(h) == (True, 0.0)
        with pytest.raises(ShapeMismatch):
            gm._self_adjoint(random_supermatrix(ctx, rng, 2, 3))

    @pytest.mark.parametrize("test", [is_superpositive, is_supernonnegative])
    def test_non_square_is_a_shape_error(self, ctx, test):
        with pytest.raises(ShapeMismatch):
            test(SuperMatrix.zeros(ctx, 2, 3))

    def test_psd_vs_pd_thresholds(self, ctx):
        m = SuperMatrix.from_body(ctx, np.diag([1.0, 0.0]))
        assert is_supernonnegative(m)
        assert not is_superpositive(m)

    def test_sum_of_positives(self, ctx, rng):
        for _ in range(10):
            a = random_superpositive_matrix(ctx, rng, 3)
            b = random_superpositive_matrix(ctx, rng, 3)
            assert is_superpositive(a + b)

    def test_quadratic_form_sampling(self, ctx, rng):
        m = random_superpositive_matrix(ctx, rng, 3)
        for _ in range(50):
            c = random_supermatrix(ctx, rng, 3, 1)
            assert classify(quadratic_form(m, c)).is_supernonnegative


class TestPositiveFactorize:
    def test_identity(self, ctx):
        assert positive_factorize(SuperMatrix.identity(ctx, 2)) == SuperMatrix.identity(ctx, 2)

    def test_diagonal_roots(self, ctx):
        s = ctx.basis((1, 2)) * (1.0 + 1.0j)
        d = ctx.scalar(4.0) + s + dagger(s)  # superreal: soul symmetrized
        m = SuperMatrix.diagonal([d, ctx.scalar(9.0)])
        l = positive_factorize(m)
        assert residual(mat_mul(l, adjoint(l)), m) <= 1e-9 * m.norm1()

    def test_random_roundtrip(self, ctx, rng):
        for _ in range(20):
            m = random_superpositive_matrix(ctx, rng, int(rng.integers(1, 5)))
            l = positive_factorize(m)
            ll = mat_mul(l, adjoint(l))
            assert residual(ll, m) <= 1e-9 * m.norm1()
            assert is_superpositive(ll)

    def test_rejects_indefinite(self, ctx, rng):
        m = SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))
        with pytest.raises(NotSuperpositive):
            positive_factorize(m)
        a = filled_matrix(ctx, rng, 3, np.diag([1.0, -0.5, 2.0]))
        with pytest.raises(NotSuperpositive, match="not positive definite"):
            positive_factorize(a + adjoint(a))

    @staticmethod
    def assert_lower_factor(m):
        """L is lower triangular, its diagonal superreal (to _REAL_TOL) with positive
        bodies, and LL* = M to 1e-12 relative."""
        l = positive_factorize(m)
        assert not np.triu(np.abs(l.stack).sum(axis=0), 1).any()
        for k in range(m.rows):
            r = l[k, k]
            assert (r - dagger(r)).norm1() <= ga._REAL_TOL * max(1.0, r.norm1())
            assert r.body.real > 0
        assert residual(mat_mul(l, adjoint(l)), m) <= 1e-12 * m.norm1()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_filled_n8_lower_factor(self, ctx, rng, n):
        a = filled_matrix(ctx, rng, n, 2 * np.eye(n) + 0.3 * rng.normal(size=(n, n)))
        m = mat_mul(a, adjoint(a))
        assert len(m.keys) == 256
        self.assert_lower_factor(m)

    def test_sparse_n64_lower_factor(self, rng):
        a = sparse_matrix(AlgebraContext(generators=64), rng, 3, 3, 2)
        m = mat_mul(a, adjoint(a))
        assert int(m.keys[-1]) >= 1 << 63
        self.assert_lower_factor(m)

    def test_takes_no_ldu_and_no_matrix_inverse(self, ctx, rng, monkeypatch):
        """No LDU, no inverse, no product of whole matrices and no soul series: one pair
        product per soul grade solved."""
        def refused(*args):
            raise AssertionError("the LL* grade solve needs no LDU, inverse, mat_mul or soul series")

        m = random_superpositive_matrix(ctx, rng, 4)
        products, real_product = [], gm._pair_product
        with monkeypatch.context() as patch:
            for module, name in ((gm, "ldu_factor"), (gm, "mat_invert"), (gm, "mat_mul"), (gm, "invert"),
                                 (ga, "invert"), (ga, "kth_root"), (ga, "_soul_series")):
                patch.setattr(module, name, refused)
            patch.setattr(gm, "_pair_product", lambda *args: products.append(args) or real_product(*args))
            l = positive_factorize(m)
        assert len(products) == len(set(np.bitwise_count(l.keys[1:]).tolist())) <= ctx.generators
        assert residual(mat_mul(l, adjoint(l)), m) <= 1e-12 * m.norm1()

    @staticmethod
    def with_souls(ctx, rng, n, keys):
        """A self-adjoint n x n matrix with a positive definite body and a soul on each of
        ``keys``: A + s Aᴴ at a key whose dagger sign is s."""
        keys = sorted(keys)
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        stack = [g @ g.conj().T + n * np.eye(n)]
        for key in keys:
            a = 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            stack.append(a - a.conj().T if int(key).bit_count() & 2 else a + a.conj().T)
        return SuperMatrix(ctx, [0, *keys], stack)

    @pytest.mark.parametrize("generators", [8, 64])
    @pytest.mark.parametrize("pattern", ["grades 2-3", "odd grades", "top grade"])
    def test_souls_on_some_grades(self, rng, generators, pattern):
        ctx = AlgebraContext(generators=generators)
        if pattern == "top grade":
            keys = [(1 << generators) - 1]
        elif generators == 8:
            grades = (2, 3) if pattern == "grades 2-3" else (1, 3, 5, 7)
            keys = [k for k in range(1, 256) if k.bit_count() in grades]
        else:  # a few keys on the SPREAD64 slots, every other one holding generator 64
            sizes = (2, 3) if pattern == "grades 2-3" else (1, 3, 5)
            keys = {index_from_generators(sorted(rng.choice(SPREAD64[:-1], size=int(rng.choice(sizes)) - t % 2,
                                                            replace=False).tolist() + [64] * (t % 2)))
                    for t in range(8)}
        self.assert_lower_factor(self.with_souls(ctx, rng, 3, keys))

    def test_body_only_is_the_body_cholesky_factor(self, ctx, rng):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = g @ g.conj().T + np.eye(3)
        h = 0.5 * (h + h.conj().T)  # exactly Hermitian
        l = positive_factorize(SuperMatrix.from_body(ctx, h))
        assert np.array_equal(l.keys, [0])
        assert np.array_equal(l.stack[0], np.linalg.cholesky(h))

    @pytest.mark.parametrize("factor", [1.5, 0.5])
    def test_least_body_eigenvalue_at_the_gate(self, ctx, rng, factor):
        """Just above the gate's threshold tol_body·max(1, ‖H‖_F) the body Cholesky factor
        exists; just below, the gate refuses."""
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        eigenvalues = np.array([0.0, 1.0, 2.0])
        eigenvalues[0] = factor * ctx.tol_body * np.linalg.norm(eigenvalues)
        body = self.with_souls(ctx, rng, 3, [1, 6, 7]).stack * 1e-3
        body[0] = (q * eigenvalues) @ q.conj().T
        m = SuperMatrix(ctx, [0, 1, 6, 7], body)
        if factor < 1:
            with pytest.raises(NotSuperpositive, match="not positive definite"):
                positive_factorize(m)
            return
        l = positive_factorize(m)
        assert np.isfinite(l.stack).all()
        assert not np.triu(np.abs(l.stack).sum(axis=0), 1).any()

    def test_repeat_calls_agree(self, ctx, rng):
        m = random_superpositive_matrix(ctx, rng, 3)
        first, second = positive_factorize(m), positive_factorize(m)
        assert first == second and first.stack.tobytes() == second.stack.tobytes()


class TestPolarization:
    def test_identity_oracle(self, ctx):
        m = SuperMatrix.identity(ctx, 3)
        got = polarization_reconstruct(lambda c: quadratic_form(m, c), 3, ctx)
        assert residual(got, m) <= 1e-12

    def test_zero_oracle(self, ctx):
        m = SuperMatrix.zeros(ctx, 2, 2)
        got = polarization_reconstruct(lambda c: quadratic_form(m, c), 2, ctx)
        assert got.is_zero()

    def test_random_recovery(self, ctx, rng):
        for _ in range(10):
            m = random_supermatrix(ctx, rng, 3, 3)
            got = polarization_reconstruct(lambda c: quadratic_form(m, c), 3, ctx)
            assert residual(got, m) <= 1e-10 * max(1.0, m.norm1())


# -- the (keys, stack) layout against entrywise reference formulas ------------


def ref_mat_mul(m, l):
    return SuperMatrix.from_rows([
        [linear_combine([(1.0, mul(m[i, k], l[k, j])) for k in range(m.cols)]) for j in range(l.cols)]
        for i in range(m.rows)
    ])


def ref_adjoint(m):
    return SuperMatrix.from_rows([[dagger(m[i, j]) for i in range(m.rows)] for j in range(m.cols)])


def ref_entrywise(f, *ms):
    return SuperMatrix.from_rows([[f(*(x[i, j] for x in ms)) for j in range(ms[0].cols)]
                                  for i in range(ms[0].rows)])


def ref_invert(m):
    """The entrywise Neumann loop: sum_k (-M_B⁻¹ M_S)^k M_B⁻¹."""
    ctx = m.context
    body_inv = SuperMatrix.from_body(ctx, np.linalg.inv(m.body()))
    minus_b = ref_entrywise(lambda e: -e, ref_mat_mul(body_inv, ref_entrywise(lambda e: e.soul, m)))
    acc = power = SuperMatrix.identity(ctx, m.rows)
    for _ in range(ctx.generators):
        power = ref_mat_mul(power, minus_b)
        acc = ref_entrywise(lambda a, b: linear_combine([(1.0, a), (1.0, b)]), acc, power)
    return ref_mat_mul(acc, body_inv)


def ref_ldu_factor(m):
    """The entrywise Schur-complement loop: one scalar invert per pivot, one mul per entry."""
    ctx, n = m.context, m.rows
    lower = [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)]
    upper = [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)]
    diag = []
    work = [list(row) for row in m.entries()]
    for k in range(n):
        pivot_inv = invert(work[0][0])
        diag.append(work[0][0])
        for i in range(1, len(work)):
            lower[k + i][k] = mul(work[i][0], pivot_inv)
            upper[k][k + i] = mul(pivot_inv, work[0][i])
        work = [[work[i][j] - mul(lower[k + i][k], work[0][j]) for j in range(1, len(work))]
                for i in range(1, len(work))]
    return SuperMatrix.from_rows(lower), SuperMatrix.diagonal(diag), SuperMatrix.from_rows(upper)


def ref_positive_factorize(m):
    lower, diag, _ = ref_ldu_factor(m)
    return ref_mat_mul(lower, SuperMatrix.diagonal([kth_root(diag[k, k], 2) for k in range(m.rows)]))


def factorizations_match_entrywise(m):
    """LDU of m and LL* of m m* against the entrywise references."""
    f, positive = ldu_factor(m), ref_mat_mul(m, ref_adjoint(m))
    return (all(close(got, want) for got, want in zip((f.lower, f.diagonal, f.upper), ref_ldu_factor(m)))
            and close(positive_factorize(positive), ref_positive_factorize(positive)))


def filled_matrix(ctx, rng, n, body):
    """n x n matrix whose entries carry every monomial of the context."""
    keys = range(1 << ctx.generators)
    return SuperMatrix.from_rows([
        [Supernumber(ctx, {k: (body[i, j] if k == 0 else 0.1 * complex(*rng.normal(size=2))) for k in keys})
         for j in range(n)] for i in range(n)])


def sparse_matrix(ctx, rng, rows, cols, terms):
    """Entries of a few random soul monomials, every other one holding generator 64."""
    def entry():
        raw = {0: complex(*rng.normal(size=2)) + 2.0}
        for t in range(terms):
            gens = rng.choice(np.arange(1, 64), size=int(rng.integers(1, 3)), replace=False).tolist()
            raw[index_from_generators(sorted(gens + [64] * (t % 2)))] = 0.3 * complex(*rng.normal(size=2))
        return Supernumber(ctx, raw)
    return SuperMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])


def test_invert_of_a_large_sparse_pivot_fits_in_memory():
    """The last pivot of an N = 64 3 × 3 matrix of 4-term entries, 15,510 terms (14,885 once its
    predecessors' inverses keep no rounding residue of o·o = 0), is inverted within 3 GiB.  Forming
    every power of the whole soul needed more: the child caps its own address space there, so an
    excess ends in MemoryError, not in the host's memory."""
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
        import numpy as np
        from grasschur import AlgebraContext, invert, ldu_factor
        from test_matrix import sparse_matrix
        z = ldu_factor(sparse_matrix(AlgebraContext(generators=64), np.random.default_rng(1), 3, 3, 3)).diagonal[2, 2]
        w = invert(z)
        print(len(z.terms) > 10_000, abs(w.body * z.body - 1.0) < 1e-15)
    """)
    path = os.pathsep.join([str(Path(grasschur.__file__).parents[1]), str(Path(__file__).parent),
                            os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert (done.returncode, done.stdout) == (0, "True True\n"), done.stderr[-2000:]


def close(got, want):
    return residual(got, want) <= 1e-12 * max(1.0, want.norm1())


class TestStackLayout:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_filled_n8_matches_entrywise(self, ctx, rng, n):
        body = 2 * np.eye(n) + 0.3 * rng.normal(size=(n, n))
        m = filled_matrix(ctx, rng, n, body)
        l = filled_matrix(ctx, rng, n, rng.normal(size=(n, n)))
        s = random_supernumber(ctx, rng, terms=20)
        assert len(m.keys) == 256
        assert close(mat_mul(m, l), ref_mat_mul(m, l))
        assert close(adjoint(m), ref_adjoint(m))
        assert close(m.scale_left(s), ref_entrywise(lambda e: mul(s, e), m))
        assert close(m.scale_right(s), ref_entrywise(lambda e: mul(e, s), m))
        assert close(m + l, ref_entrywise(lambda a, b: linear_combine([(1.0, a), (1.0, b)]), m, l))
        assert close(m - l, ref_entrywise(lambda a, b: linear_combine([(1.0, a), (-1.0, b)]), m, l))
        assert close(mat_invert(m), ref_invert(m))
        assert factorizations_match_entrywise(m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sparse_n64_top_generator_matches_entrywise(self, rng, n):
        ctx = AlgebraContext(generators=64)
        m = sparse_matrix(ctx, rng, n, n, 3)
        l = sparse_matrix(ctx, rng, n, 2, 3)
        s = sparse_matrix(ctx, rng, 1, 1, 4)[0, 0]
        assert int(m.keys[-1]) >= 1 << 63
        assert close(mat_mul(m, l), ref_mat_mul(m, l))
        assert close(adjoint(l), ref_adjoint(l))
        assert close(l.scale_left(s), ref_entrywise(lambda e: mul(s, e), l))
        assert close(l.scale_right(s), ref_entrywise(lambda e: mul(e, s), l))
        assert close(m + m, ref_entrywise(lambda a, b: linear_combine([(1.0, a), (1.0, b)]), m, m))
        assert close(m - adjoint(m), ref_entrywise(lambda a, b: linear_combine([(1.0, a), (-1.0, b)]),
                                                   m, ref_adjoint(m)))
        small = sparse_matrix(ctx, rng, min(n, 2), min(n, 2), 2)
        assert close(mat_invert(small), ref_invert(small))
        # the entrywise references' pivot inverses grow combinatorially at 4 x 4
        factored = sparse_matrix(ctx, rng, min(n, 3), min(n, 3), 2)
        assert int(factored.keys[-1]) >= 1 << 63
        assert factorizations_match_entrywise(factored)

    def test_from_rows_keeps_every_entry(self, ctx, rng):
        signed = Supernumber(ctx, {0: complex(-0.0, 1.5), 5: complex(2.0, -0.0), 9: complex(1.0, -0.0)})
        grid = [[signed, ctx.zero(), random_supernumber(ctx, rng)],
                [random_supernumber(ctx, rng), -signed, ctx.generator(8)]]
        m = SuperMatrix.from_rows(grid)
        for i, row in enumerate(grid):
            for j, e in enumerate(row):
                assert m[i, j] == e and repr(m[i, j]) == repr(e)
        assert m.entries() == tuple(tuple(row) for row in grid)

    @pytest.mark.parametrize("keys", [[2, 1], [1, 1], [1 << 7]], ids=["unsorted", "duplicate", "generator_8"])
    def test_constructor_rejects_non_canonical_keys(self, ctx4, keys):
        with pytest.raises(ValueError):
            SuperMatrix(ctx4, keys, np.ones((len(keys), 1, 1)))

    def test_constructor_takes_ascending_keys_up_to_the_last_generator(self, ctx4):
        m = SuperMatrix(ctx4, [0, 1, 1 << 3], np.ones((3, 1, 1)))
        assert m[0, 0] == Supernumber(ctx4, {0: 1, 1: 1, 8: 1})
        top = SuperMatrix(AlgebraContext(generators=64), [1 << 63], np.ones((1, 1, 1)))
        assert int(top.keys[0]) == 1 << 63

    def test_zero_and_cancelling_sums_have_no_keys(self, ctx, rng):
        zero = SuperMatrix.zeros(ctx, 2, 3)
        m = random_supermatrix(ctx, rng, 2, 3)
        for z in (zero, m - m, m + -m, m * 0):
            assert len(z.keys) == 0 and z.is_zero() and z == zero
            assert np.array_equal(z.body(), np.zeros((2, 3))) and z.norm1() == 0.0
        soul = random_supermatrix(ctx, rng, 2, 3, body=0.0)
        partial = (m + soul) - soul  # the monomials of soul alone cancel exactly
        assert np.array_equal(partial.keys, m.keys) and close(partial, m)


# -- the layout every Σ_α X_α i_α container shares (matrix.Stacked) ---------------


def _views(x):
    """Each stored coefficient matrix by power; a supermatrix is its own power 0."""
    if isinstance(x, SeriesMatrix):
        return dict(enumerate(x.coeffs))
    if isinstance(x, LaurentSeries):
        return x.coeffs
    return {0: x}


def _same_views(got, want, exact=True):
    zero = SuperMatrix.zeros(got.context, *got.shape)
    for n in set(_views(got)) | set(want):
        a, b = _views(got).get(n, zero), want.get(n, zero)
        if not (a == b if exact else close(a, b)):
            return False
    return True


_MAKE = {
    SuperMatrix: lambda ctx, rng: random_supermatrix(ctx, rng, 2, 3),
    SeriesMatrix: lambda ctx, rng: SeriesMatrix([random_supermatrix(ctx, rng, 2, 3) for _ in range(3)],
                                                exact=bool(rng.integers(2))),
    LaurentSeries: lambda ctx, rng: LaurentSeries(4, {int(n): random_supermatrix(ctx, rng, 2, 3)
                                                      for n in rng.choice(np.arange(-4, 5), 2, replace=False)}),
}
_BUMP = {"exact": lambda e: not e, "window": lambda w: w + 1, "low": lambda n: n + 1}


@pytest.mark.parametrize("cls", _MAKE, ids=lambda cls: cls.__name__)
def test_stacked_containers_share_one_layout(ctx, rng, cls):
    x, y = _MAKE[cls](ctx, rng), _MAKE[cls](ctx, rng)
    assert type(x) is cls and np.all(x.keys[1:] > x.keys[:-1]) and x.stack.any(axis=tuple(range(1, x.stack.ndim))).all()
    assert not (x.keys.flags.writeable or x.stack.flags.writeable)
    for name in ("context", "keys", "stack", *cls._own):
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(x, name))
    emptied = x.stack.copy()
    emptied[0] = 0
    dropped = cls._of(ctx, x.keys.copy(), emptied, *x._fields())
    assert np.array_equal(dropped.keys, x.keys[1:]) and dropped.stack.shape[0] == len(x.keys) - 1
    assert x.norm1() == float(np.abs(x.stack).sum()) and not x.is_zero() and (x - x).is_zero()

    views = _views(x)
    assert _same_views(-x, {n: -c for n, c in views.items()})
    assert _same_views(2.0 * x, {n: c * 2.0 for n, c in views.items()}) and 2.0 * x == x * 2.0
    assert _same_views(x - y, {n: views.get(n, SuperMatrix.zeros(ctx, 2, 3)) - c for n, c in _views(y).items()}
                       | {n: c for n, c in views.items() if n not in _views(y)}, exact=False)
    s = random_supernumber(ctx, rng, terms=6)
    assert _same_views(x.scale_left(s), {n: ref_entrywise(lambda e: mul(s, e), c) for n, c in views.items()},
                       exact=False)
    assert _same_views(x.scale_right(s), {n: ref_entrywise(lambda e: mul(e, s), c) for n, c in views.items()},
                       exact=False)

    twin = cls._of(ctx, x.keys, x.stack.copy(), *x._fields())
    assert twin == x and twin is not x and x != y
    assert cls._of(AlgebraContext(generators=8, tol_eq=1e-8), x.keys, x.stack, *x._fields()) != x
    for k, name in enumerate(cls._own):
        bumped = list(x._fields())
        bumped[k] = _BUMP[name](bumped[k])
        assert cls._of(ctx, x.keys, x.stack, *bumped) != x, name
    if cls is LaurentSeries:
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(twin) == hash(x) and len({x, twin, y}) == 2


@pytest.mark.parametrize("cls", _MAKE, ids=lambda cls: cls.__name__)
def test_scalar_is_the_one_by_one_matrix_of_its_terms(ctx, ctx4, rng, cls):
    x = _MAKE[cls](ctx, rng)
    for s in (random_supernumber(ctx, rng, terms=12), ctx.zero(), ctx.scalar(-0.5j)):
        keys, stack = x._scalar(s)
        z = SuperMatrix.from_scalar(s)
        assert keys.dtype == np.uint64 and np.array_equal(keys, z.keys)
        assert stack.shape == (len(z.keys), *[1] * (x.stack.ndim - 1))
        assert stack.tobytes() == z.stack.tobytes()
    with pytest.raises(ContextMismatch):
        x.scale_left(ctx4.one())
    with pytest.raises(ContextMismatch):
        x.scale_right(ctx4.one())


# -- matrix._inverse, solved by grade, against the power-sum reference -----------------------


def ref_inverse(context, keys, stack, body_inv, op):
    """Σ_k (−B⁻¹S)^k B⁻¹ with one whole pair product per power: each power holds every
    grade >= k, so a disjoint pair is formed once per power that contains it."""
    step = -op(body_inv[None], stack[1:])
    power = total = keys[:1], body_inv[None]
    for _ in range(context.generators):
        power = ga._pair_product(context.generators, keys[1:], step, *power, op)
        if not len(power[0]):
            break
        total = gm._add(*total, *power)
    return total


def by_reference(monkeypatch, fn, *args):
    """fn(*args) with every supermatrix inverse taken by ``ref_inverse``."""
    with monkeypatch.context() as patch:
        patch.setattr(gm, "_inverse", ref_inverse)
        patch.setattr(gse, "_inverse", ref_inverse)
        return fn(*args)


SPREAD64 = (1, 9, 17, 25, 33, 41, 57, 64)  # generator slots of the sparse N = 64 souls: bit 63, few keys


def soul_entry(ctx, rng, body, filled):
    """``body`` plus every soul monomial of the context when ``filled``, else plus two
    monomials of grade 1-2 (at N = 64 on the generators SPREAD64)."""
    if filled:
        return Supernumber(ctx, {k: body if k == 0 else 0.1 * complex(*rng.normal(size=2))
                                 for k in range(1 << ctx.generators)})
    slots = np.array(SPREAD64 if ctx.generators == 64 else range(1, ctx.generators + 1))
    raw = {0: body}
    for _ in range(2):
        gens = sorted(rng.choice(slots, size=int(rng.integers(1, 3)), replace=False).tolist())
        raw[index_from_generators(gens)] = 0.3 * complex(*rng.normal(size=2))
    return Supernumber(ctx, raw)


def soul_matrix(ctx, rng, body, filled):
    return SuperMatrix.from_rows([[soul_entry(ctx, rng, complex(body[i, j]), filled)
                                   for j in range(body.shape[1])] for i in range(body.shape[0])])


INVERSE_FIELDS = {"filled6": (6, True), "filled8": (8, True), "sparse8": (8, False), "sparse64": (64, False)}


def within_reference(got, want):
    return (got - want).norm1() <= 1e-13 * max(1.0, want.norm1())


class TestGradeInverse:
    @pytest.fixture(params=INVERSE_FIELDS)
    def field(self, request):
        generators, filled = INVERSE_FIELDS[request.param]
        return AlgebraContext(generators=generators, max_series_degree=7), filled

    @pytest.mark.parametrize("n", [1, 3])
    def test_matrix_matches_power_sum(self, field, rng, monkeypatch, n):
        ctx, filled = field
        m = soul_matrix(ctx, rng, 2 * np.eye(n) + 0.3 * rng.normal(size=(n, n)), filled)
        got, want = mat_invert(m), by_reference(monkeypatch, mat_invert, m)
        assert within_reference(got, want)
        assert residual(mat_mul(m, got), SuperMatrix.identity(ctx, n)) <= 1e-12 * max(1.0, m.norm1() * got.norm1())

    @pytest.mark.parametrize("exact", [False, True])
    def test_star_inverse_matches_power_sum(self, field, rng, monkeypatch, exact):
        ctx, filled = field
        lead = {0: 2 * np.eye(2)}
        f = SeriesMatrix.from_coeffs([soul_matrix(ctx, rng, lead.get(d, 0) + 0.3 * rng.normal(size=(2, 2)), filled)
                                      for d in range(8)], exact=exact)
        got, want = star_inverse(f), by_reference(monkeypatch, star_inverse, f)
        assert (got.degree, got.exact) == (want.degree, want.exact) == (7, False)
        assert within_reference(got, want)

    def test_wiener_invert_matches_power_sum(self, field, rng, monkeypatch):
        ctx, filled = field
        lead = {0: 2 * np.eye(2)}
        f = LaurentSeries(1, {n: soul_matrix(ctx, rng, lead.get(n, 0) + 0.3 * rng.normal(size=(2, 2)), filled)
                              for n in (-1, 0, 1)})
        got, want = wiener_invert(f), by_reference(monkeypatch, wiener_invert, f)
        assert (got.window, got.low) == (want.window, want.low)
        assert within_reference(got, want)


def test_filled_n8_inverse_forms_each_pair_once(ctx, rng, monkeypatch):
    """Inverting a 2 x 2 matrix whose entries hold all 256 monomials pairs each of the 255
    soul keys of T = -B⁻¹S with each key of W once: 3^8 - 2^8 disjoint pairs, in at most
    N + 1 pair products (one per grade of W).  The power sum forms 16,727."""
    m = filled_matrix(ctx, rng, 2, 2 * np.eye(2) + 0.3 * rng.normal(size=(2, 2)))
    pairs, products = [], []
    real_pairs, real_product = ga._disjoint_pairs, gm._pair_product

    def counted_pairs(*args):
        out = real_pairs(*args)
        pairs.append(len(out[0]))
        return out

    monkeypatch.setattr(ga, "_disjoint_pairs", counted_pairs)
    monkeypatch.setattr(gm, "_pair_product", lambda *args: products.append(args) or real_product(*args))
    mat_invert(m)
    assert sum(pairs) == 3 ** 8 - 2 ** 8 == 6305
    assert len(products) <= ctx.generators + 1
    pairs.clear()
    by_reference(monkeypatch, mat_invert, m)
    assert sum(pairs) == 16727


# -- the pair kernel's layout: pair axis innermost, results as pairs first ------------------


def pairs_first_product(generators, ka, x, kb, y, op):
    """``algebra._pair_product`` with its operands gathered pairs first in memory, as it was
    before the pair axis went innermost: terms of slot s, entry e go to bin s·width + e."""
    ia, ib, negate, gamma = ga._disjoint_pairs(generators, ka, kb)
    terms = op(np.concatenate((x, -x))[ia + len(ka) * negate], y[ib])
    width = int(np.prod(terms.shape[1:]))
    if width << generators <= ga._DENSE_SLOTS:
        keys, slot = np.arange(1 << generators, dtype=np.uint64), gamma.view(np.int64)
    else:
        keys, slot = np.unique(gamma, return_inverse=True)
    flat = (slot[:, None] * width + np.arange(width)).ravel()
    out = np.empty((len(keys), *terms.shape[1:]), dtype=complex)
    out.real[...] = np.bincount(flat, weights=terms.real.ravel(), minlength=out.size).reshape(out.shape)
    out.imag[...] = np.bincount(flat, weights=terms.imag.ravel(), minlength=out.size).reshape(out.shape)
    hit = out.any(axis=tuple(range(1, out.ndim)))
    return keys[hit], out[hit]


def layout_keys(rng, generators):
    """Every monomial at N = 8; at N = 64, 48 distinct keys of grade 1-3 on all 64 slots."""
    if generators == 8:
        return np.arange(256, dtype=np.uint64)
    keys = {sum(1 << int(g) for g in rng.choice(64, size=int(rng.integers(1, 4)), replace=False))
            for _ in range(48)}
    return np.array(sorted(keys), dtype=np.uint64)


def coefficients(rng, keys, *shape):
    return rng.normal(size=(len(keys), *shape)) + 1j * rng.normal(size=(len(keys), *shape))


def assert_same_product(generators, ka, x, kb, y, op):
    got_keys, got = ga._pair_product(generators, ka, x, kb, y, op)
    want_keys, want = pairs_first_product(generators, ka, x, kb, y, op)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got_keys, want_keys)
    assert got.tobytes() == want.tobytes()


class TestPairLayout:
    @pytest.fixture(params=[8, 64])
    def keys(self, request, rng):
        return request.param, layout_keys(rng, request.param), layout_keys(rng, request.param)

    def test_cmul_numbers(self, keys, rng):
        generators, ka, kb = keys
        assert_same_product(generators, ka, coefficients(rng, ka), kb, coefficients(rng, kb), ga._cmul)

    def test_cmul_broadcast_scalar(self, keys, rng):
        generators, ka, kb = keys
        s, m = coefficients(rng, ka, 1, 1), coefficients(rng, kb, 3, 2)
        assert_same_product(generators, ka, s, kb, m, ga._cmul)
        assert_same_product(generators, kb, m, ka, s, ga._cmul)

    def test_matmul(self, keys, rng):
        generators, ka, kb = keys
        for r, k, c in itertools.product(range(1, 5), repeat=3):
            assert_same_product(generators, ka, coefficients(rng, ka, r, k), kb, coefficients(rng, kb, k, c),
                                gm._matmul)

    def test_convolve(self, keys, rng):
        generators, ka, kb = keys
        x, y = coefficients(rng, ka, 4, 2, 3), coefficients(rng, kb, 3, 3, 2)
        for degree in (2, 5):
            assert_same_product(generators, ka, x, kb, y, functools.partial(gse._convolve, degree=degree))

    @pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3)])
    def test_degree_dot_keeps_its_summation_order(self, keys, rng, rows, cols):
        # at 33 powers numpy sums a degree axis innermost in memory pairwise, 8 lanes at a
        # time, and any other axis in sequence: the two orders differ in the last bits
        generators, ka, kb = keys
        powers, coeffs = coefficients(rng, ka, 33, 1, 1), coefficients(rng, kb, 33, rows, cols)
        assert_same_product(generators, ka, powers, kb, coeffs, gse._degree_dot)
        assert_same_product(generators, kb, coeffs, ka, powers, gse._degree_dot)

    @pytest.mark.parametrize("shape", [(), (3, 2), (4, 3, 2)])
    def test_gathered_pair_axis_is_innermost(self, rng, shape):
        keys, seen = np.arange(256, dtype=np.uint64), []

        def spy(x, y):
            seen.extend((x, y))
            return ga._cmul(x, y)

        x = coefficients(rng, keys, *shape)
        ga._pair_product(8, keys, x, keys, x, spy)
        assert len(seen) == 2
        for operand in seen:
            assert operand.shape == (3 ** 8, *shape)
            assert operand.strides[0] == operand.itemsize
