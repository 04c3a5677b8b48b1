"""The benchmark's three workloads: seeded inputs, timed operations, output checks.

Input ``i`` of operation kind ``k`` comes from two random streams (``Draw``):

* the shape stream ``default_rng([k, i])`` picks which monomials each soul
  holds, so it sets the term counts and fill-in that a product pays for;
* the value stream ``default_rng([seed, k, i])`` picks every coefficient,
  body, phase and sign.

Shapes do not depend on the seed, so runs with different seeds do the same
amount of work on different numbers, and a change in speed is not confused
with a change of inputs.  The parameters that set a solver's cost (node count,
matrix size, chain order, fill, node radius, spectral radius) follow fixed
ladders over ``i``; the continuous ones take a low-discrepancy level per
input with a small seeded jitter.  The warm-up input of a kind is ladder step
0 with every level at the low end of its range.

The package is called only through attributes of its modules, looked up at
call time, so the tracer's rebinding sees every call.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import grasschur.algebra as ga
import grasschur.cli as gcli
import grasschur.matrix as gm
import grasschur.oracle as go
import grasschur.realization as gr
import grasschur.sampling as gsm
import grasschur.schur as gs
import grasschur.serialization as gser
import grasschur.series as gse
import grasschur.toeplitz as gt

GOLDEN = 0.6180339887498949
JITTER = 0.02        # seeded jitter of a level, as a share of its range
WARMUP = 2**31 - 1   # value-stream index of warm-up inputs, apart from every pool index
CYCLE_SECONDS = 7.5  # nominal busy time of one cycle of any workload

CTX6 = ga.AlgebraContext(generators=6)
CTX8 = ga.AlgebraContext(generators=8)  # degree 32 is the default truncation
CTX64 = ga.AlgebraContext(generators=64)


class CheckFailed(Exception):
    """An operation's output is outside its pinned tolerance."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Draw:
    """The random streams of one input."""

    def __init__(self, seed: int, kind: int, i: int, warmup: bool = False):
        self.rng = np.random.default_rng([seed, kind, WARMUP if warmup else i])
        self.shape = np.random.default_rng([kind, i])
        self.warmup = warmup

    def level(self, slot: int) -> float:
        """Position in [0, 1] of a cost parameter; slots spread evenly over [0, 1)."""
        if self.warmup:
            return 0.0
        return min(1.0, max(0.0, (slot * GOLDEN) % 1.0 + self.rng.uniform(-JITTER, JITTER)))

    def soul(self, ctx, terms: int, scale: float, max_grade=None, parity=None):
        """Soul whose monomials grasschur.sampling draws from the shape stream."""
        keys = gsm.random_soul(ctx, self.shape, terms=terms, max_grade=max_grade,
                               parity=parity).terms
        return ga.Supernumber(ctx, {k: scale * complex(self.rng.normal(), self.rng.normal())
                                    for k in keys})

    def number(self, ctx, terms: int, body: complex, scale: float, max_grade=None):
        return ctx.scalar(body) + self.soul(ctx, terms, scale, max_grade)

    def matrix(self, ctx, body, terms: int, scale: float, max_grade=None):
        body = np.atleast_2d(np.asarray(body, dtype=complex))
        return gm.SuperMatrix.from_rows([[self.number(ctx, terms, b, scale, max_grade) for b in row]
                                         for row in body])

    def normal(self, *shape) -> np.ndarray:
        return self.rng.normal(size=shape) + 1j * self.rng.normal(size=shape)

    def phase(self) -> complex:
        return cmath.exp(2j * np.pi * self.rng.random())

    def filled(self, ctx, fill: int, body: complex, scale: float):
        """Supernumber whose soul covers ``fill`` distinct monomials of all grades.

        grasschur.sampling draws a grade first and then a monomial of that
        grade, so it needs about 1600 draws to reach 248 of the 255 soul
        monomials at N=8; drawing the monomial set directly reaches any fill.
        """
        size = (1 << ctx.generators) - 1
        keys = self.shape.choice(size, size=min(fill, size), replace=False) + 1
        terms = {int(k): scale * complex(self.rng.normal(), self.rng.normal()) for k in keys}
        terms[0] = complex(body)
        return ga.Supernumber(ctx, terms)

    def filled_matrix(self, ctx, body, fill: int, scale: float = 0.02):
        body = np.atleast_2d(np.asarray(body, dtype=complex))
        return gm.SuperMatrix.from_rows([[self.filled(ctx, fill, b, scale) for b in row]
                                         for row in body])


@dataclass
class Kind:
    """One operation kind: how to make input i, the timed call, its check.

    ``collect`` turns what the timed call returned into a value that compares
    equal across repeats; it runs outside the timed span.
    """

    name: str
    make: Callable[[Draw, int, Path], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    collect: Callable[[Any, Any], Any] = lambda inp, raw: raw
    pool: int | None = None  # distinct inputs, when not the workload's rounds


@dataclass
class Workload:
    name: str
    kinds: list[Kind]
    rounds: int  # rounds per cycle, one operation of each kind per round

    def pool(self, kind_index: int) -> int:
        """Distinct inputs of a kind, taken in turn and from the start again."""
        return self.kinds[kind_index].pool or self.rounds

    def cycles(self, seconds: float) -> int:
        """Cycles a run makes: fixed by --seconds, so both sides of a comparison
        run the same operations and the tail percentile has one meaning."""
        return max(1, round(seconds / CYCLE_SECONDS))

    def make_input(self, seed: int, kind_index: int, i: int, workdir: Path):
        return self.kinds[kind_index].make(Draw(seed, kind_index, i), i, workdir)

    def warmup_input(self, seed: int, kind_index: int, workdir: Path):
        """The smallest input of a kind: ladder step 0, every level at its low end."""
        return self.kinds[kind_index].make(Draw(seed, kind_index, 0, warmup=True), 0, workdir)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _write(workdir: Path, name: str, obj) -> str:
    path = workdir / name
    path.write_text(gser.dumps(obj))
    return str(path)


def _cli_collect(inp, rc):
    out = Path(inp["out"])
    return rc, out.read_bytes() if rc == 0 and out.exists() else b""


def _cli_output(out) -> dict:
    rc, data = out
    _require(rc == 0, f"exit status {rc}")
    return json.loads(data)


def _rel(x: float, scale: float) -> float:
    return x / max(1.0, scale)


def _fill_of(d: Draw, i: int, low: int = 64, high: int = 255) -> int:
    return low + int((high - low) * d.level(i))


def _terms_of(i: int) -> int:
    """Soul draws of the small N=64 numbers, 1..11 (2..12 terms with the body)."""
    return 1 + (5 * i) % 11


def _series_dist(f, g) -> float:
    through = min(f.degree, g.degree)
    return sum((f.coeffs[n] - g.coeffs[n]).norm1() for n in range(through + 1))


# ---------------------------------------------------------------------------
# schur_mix: the Schur-analysis pipelines, N=8, degree 32, mostly through the CLI
# ---------------------------------------------------------------------------


def _np_make(d, i, workdir):
    n_nodes = 1 + i % 4
    c0 = CTX8.scalar(complex(d.rng.uniform(-0.35, 0.35), d.rng.uniform(-0.25, 0.25)))
    c1 = CTX8.scalar(complex(d.rng.uniform(-0.3, 0.3), d.rng.uniform(-0.2, 0.2)))
    generator = gse.SeriesMatrix.from_coeffs(
        [gm.SuperMatrix.from_scalar(c0 + d.soul(CTX8, 2, 0.08)),
         gm.SuperMatrix.from_scalar(c1 + d.soul(CTX8, 2, 0.08))], exact=True)
    turn = d.phase()
    nodes, values = [], []
    for k in range(n_nodes):
        radius = 0.2 + 0.7 * d.level(4 * i + k)
        z = CTX8.scalar(radius * turn * cmath.exp(2j * np.pi * (k + 0.5) / n_nodes))
        z = z + d.soul(CTX8, 2, 0.05)
        nodes.append(z)
        values.append(gse.evaluate(generator, z)[0, 0])
    data = gs.InterpolationData(tuple(nodes), tuple(values))
    path = _write(workdir, f"np_{i}.json", gser.interpolation_data_to_obj(data))
    out = str(workdir / "np_out.json")
    return {"data": data, "out": out,
            "argv": ["np", "solve", "--data", path, "--seed", str(i), "--out", out]}


def _np_check(inp, out):
    got = _cli_output(out)
    data = inp["data"]
    nodes = [z.body for z in data.nodes]
    values = [s.body for s in data.values]
    pick = gser.matrix_from_obj(got["pick"], CTX8)
    oracle, _, pick_cl = go.classical_np_solution(nodes, values)
    gap = float(np.abs(pick.body() - pick_cl).max())
    _require(gap <= 1e-9, f"pick body gap {gap:.2e}")
    series = gser.series_from_obj(got["solution"], CTX8)
    for lam in (0.15 + 0.1j, -0.2, 0.25j):
        value = gse.evaluate(series, CTX8.scalar(lam))[0, 0].body
        _require(abs(value - oracle(lam)) <= 1e-9, f"solution body gap at {lam}")
    # the reported residuals carry the truncation tail |z_B|^32; the row-sum
    # residuals of the returned Pick matrix are truncation-free
    theta = gs.build_theta(data.output_matrix(), data.state_matrix(), pick, data.signature(),
                           verify_samples=0)
    worst = max(gs.np_node_residuals(data, theta))
    _require(worst <= 1e-8, f"node residual {worst:.2e}")
    # the central solution is S = b ⋆ d^{-1}, with b, d blocks of theta:
    # S ⋆ d = b holds coefficient by coefficient up to the truncation degree,
    # so every soul coefficient of the returned series is checked
    _require(series.degree == CTX8.max_series_degree, f"solution degree {series.degree}")
    b, d = theta.series.block(0, 1, 1, 2), theta.series.block(1, 2, 1, 2)
    gap = _series_dist(gse.star_mul(series, d), b)
    _require(_rel(gap, series.norm1() * d.norm1()) <= 1e-9, f"S ⋆ d - b = {gap:.2e}")


def _theta_make(d, i, workdir):
    q = 1 + i % 2
    rho = 0.5 + 0.45 * d.level(i)
    a_body = d.normal(q, q)
    a_body *= rho / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
    a = d.matrix(CTX8, a_body, terms=1, scale=0.1, max_grade=2)
    c = d.matrix(CTX8, 0.5 * d.normal(2, q), terms=1, scale=0.5, max_grade=2)
    j = gm.SuperMatrix.identity(CTX8, 2)
    out = str(workdir / "theta_out.json")
    files = [_write(workdir, f"theta_{name}_{i}.json", gser.matrix_to_obj(m))
             for name, m in (("c", c), ("a", a), ("j", j))]
    return {"c": c, "a": a, "j": j, "out": out,
            "argv": ["theta", "build", "--C", files[0], "--A", files[1], "--J", files[2],
                     "--seed", str(i), "--out", out]}


def _theta_check(inp, out):
    got = _cli_output(out)
    c, a, j = inp["c"], inp["a"], inp["j"]
    p = gser.matrix_from_obj(got["P"], CTX8)
    residual = gs.stein_residual(p, c, a, j)
    _require(residual <= CTX8.tol_eq * max(1.0, p.norm1()), f"Stein residual {residual:.2e}")
    # body coefficients Theta_0 = I - CK, Theta_n = C A^{n-1} (I-A) K by numpy
    cb, ab, pb, jb = c.body(), a.body(), p.body(), j.body()
    eye = np.eye(ab.shape[0])
    k = np.linalg.solve(pb, np.linalg.inv(eye - ab).conj().T @ cb.conj().T @ jb)
    theta = gser.series_from_obj(got["theta"], CTX8)
    want = [np.eye(2) - cb @ k]
    power = (eye - ab) @ k
    for _ in range(3):
        want.append(cb @ power)
        power = ab @ power
    for n, w in enumerate(want):
        gap = float(np.abs(theta.coeffs[n].body() - w).max())
        _require(gap <= 1e-9 * max(1.0, float(np.abs(w).max())), f"theta_{n} body gap {gap:.2e}")


def _schur_make(d, i, workdir):
    coeffs = d.normal(17)
    coeffs *= (0.5 + 0.45 * d.level(i)) / np.sum(np.abs(coeffs))
    series = gse.SeriesMatrix.from_coeffs([
        gm.SuperMatrix.from_scalar(d.number(CTX8, 2, c, 0.1)) for c in coeffs])
    path = _write(workdir, f"schur_{i}.json", gser.series_to_obj(series))
    out = str(workdir / "schur_out.json")
    return {"bodies": [complex(c) for c in coeffs], "out": out,
            "argv": ["schur", "run", "--series", path, "--max-steps", "6", "--out", out]}


def _schur_check(inp, out):
    got = _cli_output(out)
    expected, boundary = go.classical_schur(inp["bodies"], steps=6)
    _require(not boundary and got["steps"] == len(expected) == 6, "chain length")
    for pair, want in zip(got["rho_bodies"], expected):
        gap = abs(complex(pair["re"], pair["im"]) - want)
        _require(gap <= 1e-9, f"rho body gap {gap:.2e}")


def _blaschke_make(d, i, workdir):
    a = d.number(CTX8, 2, complex(d.rng.uniform(-0.55, 0.55), d.rng.uniform(-0.4, 0.4)), 0.1)
    s = d.soul(CTX8, 2, 0.1)
    p = CTX8.scalar(1.0 + d.rng.random()) + s + ga.dagger(s)
    c = ga.kth_root(p - ga.mul(ga.dagger(a), ga.mul(p, a)), 2) * d.phase()
    # an even argument: theta evaluation is exact at central points
    at = CTX8.scalar((0.3 + 0.6 * d.level(i)) * d.phase()) + d.soul(CTX8, 3, 0.05, parity="even")
    paths = [_write(workdir, f"bl_{name}_{i}.json", gser.supernumber_to_obj(v))
             for name, v in (("a", a), ("c", c), ("p", p), ("at", at))]
    out = str(workdir / "blaschke_out.json")
    return {"a": a, "c": c, "p": p, "at": at, "out": out,
            "argv": ["blaschke", "eval", "--a", paths[0], "--c", paths[1], "--p", paths[2],
                     "--at", paths[3], "--out", out]}


def _blaschke_check(inp, out):
    got = _cli_output(out)
    a, c, p, z = (inp[k].body for k in ("a", "c", "p", "at"))
    k = c.conjugate() / (p * (1.0 - a).conjugate())
    want = 1.0 - (1.0 - z) * c * k / (1.0 - z * a)
    value = gser.supernumber_from_obj(got["value"], CTX8).body
    _require(abs(value - want) <= 1e-9, f"value body gap {abs(value - want):.2e}")
    omega = gser.supernumber_from_obj(got["omega"], CTX8).body
    _require(abs(omega - a.conjugate()) <= 1e-9, "omega body")


def _wiener_make(d, i, workdir):
    # the FFT grid, and so the cost, grows as the side coefficients approach
    # the central one in size
    side = 0.15 + 0.3 * d.level(i)
    body = {0: 2.0 + 0.1 * d.rng.normal(), 1: side * d.phase(), -1: side * d.phase()}
    return gse.LaurentSeries(1, {
        n: gm.SuperMatrix.from_scalar(d.number(CTX6, 2, v, 0.2, max_grade=2))
        for n, v in body.items()})


def _wiener_check(f, g):
    eye = gm.SuperMatrix.identity(CTX6, 1)
    residual = gse.laurent_star_mul(f, g) - gse.LaurentSeries.constant(eye)
    worst = max((c.norm1() for n, c in residual.coeffs.items() if abs(n) <= f.window), default=0.0)
    _require(worst <= 1e-9, f"f*g - 1 = {worst:.2e} inside the window")


# Distinct inputs per kind: a 30 s run (4 cycles of 3 rounds) takes each once.
# The costs of a few inputs, each repeated, would cluster, and the median
# would jump between clusters from run to run.
SCHUR_POOL = 12


def _cli_kind(name, make, check):
    return Kind(name, make, lambda inp: gcli.main(inp["argv"]), check, _cli_collect,
                pool=SCHUR_POOL)


# Left out: spectral radius 0.99, where one Stein solve takes about 12 s, and
# 8-node interpolation, where 4 nodes already take up to 2 s; either would make
# up most of the tail.  The traced iteration counts show how cost grows with rho.
SCHUR_MIX = Workload("schur_mix", [
    _cli_kind("np_solve", _np_make, _np_check),
    _cli_kind("theta_build", _theta_make, _theta_check),
    _cli_kind("schur_run", _schur_make, _schur_check),
    _cli_kind("blaschke_eval", _blaschke_make, _blaschke_check),
    Kind("wiener_invert", _wiener_make, lambda f: gse.wiener_invert(f), _wiener_check,
         pool=SCHUR_POOL),
], rounds=3)


# ---------------------------------------------------------------------------
# dense_n8: linear algebra over filled-in souls, N=8, direct library calls
# ---------------------------------------------------------------------------


def _well_conditioned(d, n):
    return 2 * np.eye(n) + 0.3 * d.normal(n, n)


def _matmul_make(d, i, workdir):
    n = 2 + i % 3
    fill = _fill_of(d, i)
    return (d.filled_matrix(CTX8, d.rng.normal(size=(n, n)), fill, 0.3),
            d.filled_matrix(CTX8, d.rng.normal(size=(n, n)), fill, 0.3))


def _matmul_check(inp, out):
    m, l = inp
    n = m.rows
    scale = m.norm1() * l.norm1()
    gap = float(np.abs(out.body() - m.body() @ l.body()).max())
    _require(gap <= 1e-12 * scale, f"body gap {gap:.2e}")
    # one full entry against the dense bubble-sort oracle
    r, col = n - 1, 0
    acc = np.zeros(1 << 8, dtype=complex)
    for k in range(n):
        acc += go.naive_mul(go.DenseSupernumber.from_terms(8, m[r, k].terms),
                            go.DenseSupernumber.from_terms(8, l[k, col].terms)).coeffs
    got = go.DenseSupernumber.from_terms(8, out[r, col].terms).coeffs
    gap = float(np.abs(got - acc).sum())
    _require(gap <= 1e-12 * scale, f"entry gap {gap:.2e} against the oracle")


def _square_make(d, i, workdir):
    n = 2 + i % 3
    return d.filled_matrix(CTX8, _well_conditioned(d, n), _fill_of(d, i))


def _invert_matrix_check(m, inv):
    eye = gm.SuperMatrix.identity(CTX8, m.rows)
    residual = (gm.mat_mul(m, inv) - eye).norm1()
    _require(_rel(residual, m.norm1() * inv.norm1()) <= 1e-9, f"M M^-1 - I = {residual:.2e}")


def _ldu_check(m, factors):
    residual = (factors.reconstruct() - m).norm1()
    _require(residual / m.norm1() <= 1e-9, f"LDU residual {residual:.2e}")


def _positive_make(d, i, workdir):
    n = 2 + i % 3
    a = d.filled_matrix(CTX8, 0.4 * d.normal(n, n), _fill_of(d, i))
    return gm.mat_mul(a, gm.adjoint(a)) + gm.SuperMatrix.identity(CTX8, n) * (0.5 * n)


def _positive_check(m, low):
    residual = (gm.mat_mul(low, gm.adjoint(low)) - m).norm1()
    _require(residual / m.norm1() <= 1e-9, f"LL* residual {residual:.2e}")


def _dense_number_make(d, i, workdir):
    body = complex(1.0 + d.rng.random(), d.rng.normal())
    return d.filled(CTX8, _fill_of(d, i, 128, 255), body, 0.05), 2 + i % 3


def _number_invert_check(inp, w):
    z = inp[0]
    residual = (ga.mul(z, w) - z.context.one()).norm1()
    _require(residual <= 1e-9, f"z z^-1 - 1 = {residual:.2e}")


def _root_check(inp, w):
    z, k = inp
    residual = (w ** k - z).norm1() / max(1.0, z.norm1())
    _require(residual <= 1e-9, f"w^k - z = {residual:.2e}")


def _realization_make(d, i, workdir):
    n = 2 + i % 3
    fill = _fill_of(d, i)
    a_body = d.normal(n, n)
    a_body *= 0.5 / max(abs(np.linalg.eigvals(a_body)).max(), 1e-9)
    return gr.Realization(
        a=d.filled_matrix(CTX8, a_body, fill),
        b=d.filled_matrix(CTX8, 0.5 * d.rng.normal(size=(n, 2)), fill),
        c=d.filled_matrix(CTX8, 0.5 * d.rng.normal(size=(2, n)), fill),
        d=d.filled_matrix(CTX8, 2 * np.eye(2), fill),
    )


REALIZATION_DEGREE = 6
CHECK_DEGREE = 2  # the inverse check multiplies filled series: keep it short


def _to_series_check(r, f):
    ab, bb, cb, db = r.a.body(), r.b.body(), r.c.body(), r.d.body()
    want = [db]
    power = bb
    for _ in range(REALIZATION_DEGREE):
        want.append(cb @ power)
        power = ab @ power
    _require(f.degree == REALIZATION_DEGREE, "degree")
    for n, w in enumerate(want):
        gap = float(np.abs(f.coeffs[n].body() - w).max())
        _require(gap <= 1e-12 * max(1.0, float(np.abs(w).max())), f"coefficient {n} body gap")


def _inverse_realization_check(r, inv):
    f = gr.to_series(r, CHECK_DEGREE)
    g = gr.to_series(inv, CHECK_DEGREE)
    worst = _series_dist(gse.star_mul(f, g), gse.SeriesMatrix.identity(CTX8, 2))
    _require(_rel(worst, f.norm1() * g.norm1()) <= 1e-9, f"F G - I = {worst:.2e}")


DENSE_N8 = Workload("dense_n8", [
    Kind("mat_mul", _matmul_make, lambda ml: gm.mat_mul(*ml), _matmul_check),
    Kind("mat_invert", _square_make, lambda m: gm.mat_invert(m), _invert_matrix_check),
    Kind("ldu_factor", _square_make, lambda m: gm.ldu_factor(m), _ldu_check),
    Kind("positive_factorize", _positive_make, lambda m: gm.positive_factorize(m), _positive_check),
    Kind("invert", _dense_number_make, lambda zk: ga.invert(zk[0]), _number_invert_check),
    Kind("kth_root", _dense_number_make, lambda zk: ga.kth_root(*zk), _root_check),
    Kind("to_series", _realization_make, lambda r: gr.to_series(r, REALIZATION_DEGREE),
         _to_series_check),
    Kind("inverse_realization", _realization_make, lambda r: gr.inverse_realization(r),
         _inverse_realization_check),
], rounds=9)


# ---------------------------------------------------------------------------
# sparse_n64: sparse algebra at N=64, direct library calls
# ---------------------------------------------------------------------------


def _chain_make(d, i, workdir):
    order = 1 + i % 3
    s = d.soul(CTX64, 3, 0.1)
    r0 = CTX64.scalar(1.0 + d.rng.random()) + s + ga.dagger(s)  # symbols reach 100-400 terms
    etas = tuple(CTX64.scalar((0.3 + 0.6 * d.level(3 * i + k)) * d.phase()) + d.soul(CTX64, 2, 0.1)
                 for k in range(order))
    return gt.ToeplitzSpec((r0,)), etas


def _chain_run(inp):
    spec, etas = inp
    steps = []
    for eta in etas:
        params = gt.extension_params(spec)
        spec = gt.extend(spec, eta, params)
        steps.append(params)
    return spec, tuple(steps), gt.verify_extension(spec)


def _chain_check(inp, out):
    spec, steps, verified = out
    _require(verified is True, "extension not verified superpositive")
    etas = inp[1]
    for k, (params, eta) in enumerate(zip(steps, etas)):
        bodies = [z.body for z in spec.r[: k + 1]]
        center, alpha, xi_sq = go.classical_toeplitz_extension(bodies)
        lr, xi = params.left_radius, params.right_radius
        gaps = (abs(params.center.body - center), abs(ga.mul(lr, lr).body - 1.0 / alpha),
                abs(ga.mul(xi, xi).body - xi_sq),
                abs(spec.r[k + 1].body - (center + lr.body * eta.body * xi.body)))
        _require(max(gaps) <= 1e-9, f"step {k} body gap {max(gaps):.2e}")


def _sparse_number_make(d, i, workdir):
    body = complex(1.0 + d.rng.random(), d.rng.normal())
    return d.number(CTX64, _terms_of(i), body, 0.2), 2 + i % 3


def _geometric(z0: complex, n: int) -> complex:
    """n-th derivative of 1/(1-x) at z0."""
    return math.factorial(n) / (1.0 - z0) ** (n + 1)


def _analytic_make(d, i, workdir):
    return d.number(CTX64, _terms_of(i), 0.6 * d.phase(), 0.2)


def _analytic_check(z, fz):
    residual = (ga.mul(fz, z.context.one() - z) - z.context.one()).norm1()
    _require(residual <= 1e-9 * max(1.0, fz.norm1()), f"f(z)(1-z) - 1 = {residual:.2e}")


def _classify_make(d, i, workdir):
    w = d.number(CTX64, _terms_of(i), complex(d.rng.normal(), d.rng.normal()), 0.2)
    real = i % 2 == 0
    return (w + ga.dagger(w)) if real else w, real


def _classify_check(inp, report):
    z, real = inp
    grades = {k.bit_count() for k in z.terms}
    _require(report.is_real == real, "reality")
    _require(report.is_even == all(g % 2 == 0 for g in grades), "evenness")
    _require(report.is_odd == all(g % 2 == 1 for g in grades), "oddness")
    _require(report.body == z.body and report.soul + z.body == z, "body/soul split")
    _require(report.is_superpositive == (real and z.body.real > z.context.tol_body), "positivity")


SPARSE_N64 = Workload("sparse_n64", [
    Kind("toeplitz_chain", _chain_make, _chain_run, _chain_check),
    # an 11-term soul can give a root of 2048 terms and checking w^k then takes
    # seconds, so these kinds repeat 33 inputs instead of taking 66
    Kind("invert", _sparse_number_make, lambda zk: ga.invert(zk[0]), _number_invert_check, pool=33),
    Kind("kth_root", _sparse_number_make, lambda zk: ga.kth_root(*zk), _root_check, pool=33),
    Kind("analytic_apply", _analytic_make, lambda z: ga.analytic_apply(_geometric, z),
         _analytic_check, pool=33),
    Kind("classify", _classify_make, lambda zr: ga.classify(zr[0]), _classify_check, pool=33),
], rounds=66)


WORKLOADS = {w.name: w for w in (SCHUR_MIX, DENSE_N8, SPARSE_N64)}
