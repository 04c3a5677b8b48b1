"""CLI golden round-trips, determinism under fixed seed, and exit codes."""
import json

import numpy as np
import pytest

from grasschur import AlgebraContext, mul
from grasschur.cli import main
from grasschur.sampling import random_soul, random_supernumber
from grasschur.serialization import (
    dumps,
    interpolation_data_to_obj,
    matrix_to_obj,
    series_to_obj,
    supernumber_from_obj,
    supernumber_to_obj,
    toeplitz_spec_to_obj,
)


@pytest.fixture
def ctx():
    return AlgebraContext(generators=8)


def write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


def run_twice(argv_builder, tmp_path):
    """Run a command twice into fresh files; outputs must be byte-identical."""
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"out_{tag}.json"
        argv = argv_builder(str(out))
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    return json.loads(outputs[0])


class TestAlgebraCommands:
    def test_invert_golden(self, ctx, tmp_path):
        z = ctx.one() + ctx.generator(1)
        infile = write(tmp_path / "z.json", supernumber_to_obj(z))
        got = run_twice(lambda out: ["algebra", "invert", "--in", infile, "--out", out], tmp_path)
        assert supernumber_from_obj(got, ctx) == ctx.one() - ctx.generator(1)

    def test_mul_matches_library(self, ctx, tmp_path):
        rng = np.random.default_rng(3)
        z = random_supernumber(ctx, rng)
        w = random_supernumber(ctx, rng)
        a = write(tmp_path / "a.json", supernumber_to_obj(z))
        b = write(tmp_path / "b.json", supernumber_to_obj(w))
        got = run_twice(
            lambda out: ["algebra", "mul", "--in", a, "--rhs", b, "--out", out], tmp_path)
        assert supernumber_from_obj(got, ctx) == mul(z, w)

    def test_sqrt_roundtrip(self, ctx, tmp_path):
        rng = np.random.default_rng(4)
        z = ctx.scalar(2.5) + random_soul(ctx, rng, scale=0.3)
        infile = write(tmp_path / "z.json", supernumber_to_obj(z))
        got = run_twice(
            lambda out: ["algebra", "sqrt", "--in", infile, "--k", "3", "--out", out], tmp_path)
        w = supernumber_from_obj(got, ctx)
        assert (w**3 - z).norm1() <= 1e-9 * max(1.0, z.norm1())

    def test_classify_report(self, ctx, tmp_path):
        infile = write(tmp_path / "z.json",
                       supernumber_to_obj(ctx.generator(1) + ctx.generator(2)))
        got = run_twice(lambda out: ["algebra", "classify", "--in", infile, "--out", out], tmp_path)
        assert got["is_real"] is True
        assert got["is_superpositive"] is False
        assert got["is_odd"] is True

    def test_body_zero_exit_code(self, ctx, tmp_path):
        infile = write(tmp_path / "z.json", supernumber_to_obj(ctx.generator(1)))
        assert main(["algebra", "invert", "--in", infile]) == 2

    def test_usage_error_exit_code(self):
        assert main(["algebra", "invert"]) == 1
        assert main(["bogus"]) == 1

    def test_config_file_sets_context(self, ctx, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"generators": 4, "degree": 8}))
        z_file = write(tmp_path / "z.json", supernumber_to_obj(ctx.generator(5)))
        # generator 5 exceeds the configured width of 4
        assert main(["algebra", "classify", "--in", z_file, "--config", str(config)]) == 2
        # flag overrides the config back to a wide context
        out = tmp_path / "o.json"
        assert main(["algebra", "classify", "--in", z_file, "--config", str(config),
                     "--generators", "8", "--out", str(out)]) == 0

    @pytest.mark.parametrize("bad", ["NaN", '"abc"'])
    def test_malformed_coefficient_exit_code(self, bad, tmp_path, capsys):
        infile = tmp_path / "z.json"
        infile.write_text(f'[{{"idx": [], "re": {bad}, "im": 0.0}}]')
        assert main(["algebra", "invert", "--in", str(infile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("text", ['[{"generators": 4}]', '{"generators": 4',
                                      '{"generators": [4]}', '{"generators": 1e400}',
                                      '{"tol_body": NaN}'])
    def test_malformed_config_exit_code(self, text, ctx, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        z_file = write(tmp_path / "z.json", supernumber_to_obj(ctx.scalar(2.0)))
        assert main(["algebra", "classify", "--in", z_file, "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")


class TestToeplitzCommand:
    def test_extend_and_verify(self, ctx, tmp_path):
        from grasschur.toeplitz import ToeplitzSpec

        spec = ToeplitzSpec((ctx.scalar(1.0), ctx.scalar(0.4)))
        eta = ctx.scalar(0.5) + random_soul(ctx, np.random.default_rng(5), terms=2, scale=0.1)
        spec_file = write(tmp_path / "spec.json", toeplitz_spec_to_obj(spec))
        eta_file = write(tmp_path / "eta.json", supernumber_to_obj(eta))
        got = run_twice(
            lambda out: ["toeplitz", "extend", "--spec", spec_file, "--eta", eta_file, "--out", out],
            tmp_path)
        assert got["verified_superpositive"] is True
        assert len(got["spec"]["symbols"]) == 3

    def test_params_only(self, ctx, tmp_path):
        from grasschur.toeplitz import ToeplitzSpec

        spec = ToeplitzSpec((ctx.scalar(1.0), ctx.scalar(0.0)))
        spec_file = write(tmp_path / "spec.json", toeplitz_spec_to_obj(spec))
        eta_file = write(tmp_path / "eta.json", supernumber_to_obj(ctx.zero()))
        got = run_twice(
            lambda out: ["toeplitz", "extend", "--spec", spec_file, "--eta", eta_file,
                         "--params-only", "--out", out],
            tmp_path)
        assert got["center"] == []
        assert supernumber_from_obj(got["left_radius"], ctx) == ctx.one()

    def test_infeasible_exit_code(self, ctx, tmp_path):
        from grasschur.toeplitz import ToeplitzSpec

        spec = ToeplitzSpec((ctx.scalar(1.0), ctx.scalar(2.0)))
        spec_file = write(tmp_path / "spec.json", toeplitz_spec_to_obj(spec))
        eta_file = write(tmp_path / "eta.json", supernumber_to_obj(ctx.zero()))
        assert main(["toeplitz", "extend", "--spec", spec_file, "--eta", eta_file]) == 2


class TestNPCommand:
    def test_solve_residuals(self, ctx, tmp_path):
        from grasschur.schur import InterpolationData

        # values of the strictly contractive s(z) = 0.2 + 0.5 z at the nodes
        data = InterpolationData(
            (ctx.scalar(0.2), ctx.scalar(-0.3j)),
            (ctx.scalar(0.2 + 0.5 * 0.2), ctx.scalar(0.2 + 0.5 * (-0.3j))),
        )
        data_file = write(tmp_path / "data.json", interpolation_data_to_obj(data))
        got = run_twice(
            lambda out: ["np", "solve", "--data", data_file, "--seed", "7", "--out", out], tmp_path)
        assert max(got["node_residuals"]) <= 1e-8

    def test_count_mismatch_exit_code(self, ctx, tmp_path, capsys):
        nodes = [supernumber_to_obj(ctx.scalar(0.2)), supernumber_to_obj(ctx.scalar(-0.3j))]
        data = write(tmp_path / "d.json",
                     {"nodes": nodes, "values": [supernumber_to_obj(ctx.scalar(0.1))]})
        assert main(["np", "solve", "--data", data]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    def test_nodes_not_a_list_exit_code(self, ctx, tmp_path, capsys):
        data = write(tmp_path / "d.json",
                     {"nodes": 5, "values": [supernumber_to_obj(ctx.scalar(0.1))]})
        assert main(["np", "solve", "--data", data]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")


class TestSchurCommand:
    def test_run_chain_matches_oracle(self, ctx, tmp_path):
        from grasschur.oracle import classical_schur
        from grasschur.series import SeriesMatrix
        from grasschur import SuperMatrix

        bodies = [0.5, 0.25, -0.1, 0.05, 0.0, 0.0, 0.0, 0.0]
        series = SeriesMatrix.from_coeffs(
            [SuperMatrix.from_body(ctx, [[b]]) for b in bodies])
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        got = run_twice(
            lambda out: ["schur", "run", "--series", series_file, "--max-steps", "5", "--out", out],
            tmp_path)
        expected, _ = classical_schur([complex(b) for b in bodies], steps=5)
        assert got["steps"] == 5
        for pair, want in zip(got["rho_bodies"], expected):
            assert abs(complex(pair["re"], pair["im"]) - want) <= 1e-9


class TestBlaschkeCommand:
    def test_eval_at_zero_datum(self, ctx, tmp_path):
        a_file = write(tmp_path / "a.json", supernumber_to_obj(ctx.zero()))
        c_file = write(tmp_path / "c.json", supernumber_to_obj(ctx.one()))
        p_file = write(tmp_path / "p.json", supernumber_to_obj(ctx.one()))
        at_file = write(tmp_path / "at.json", supernumber_to_obj(ctx.scalar(0.3)))
        got = run_twice(
            lambda out: ["blaschke", "eval", "--a", a_file, "--c", c_file, "--p", p_file,
                         "--at", at_file, "--out", out],
            tmp_path)
        value = supernumber_from_obj(got["value"], ctx)
        assert (value - ctx.scalar(0.3)).norm1() <= 1e-9
        assert got["omega"] == []


class TestThetaCommand:
    def test_build_with_stein_default(self, ctx, tmp_path):
        c = [[supernumber_to_obj(ctx.one())], [supernumber_to_obj(ctx.scalar(0.5))]]
        c_obj = {"rows": 2, "cols": 1, "entries": c}
        a_obj = matrix_to_obj(
            __import__("grasschur").SuperMatrix.from_body(ctx, [[0.4]]))
        j_obj = matrix_to_obj(
            __import__("grasschur").SuperMatrix.from_body(ctx, np.diag([1.0, -1.0])))
        c_file = write(tmp_path / "c.json", c_obj)
        a_file = write(tmp_path / "a.json", a_obj)
        j_file = write(tmp_path / "j.json", j_obj)
        got = run_twice(
            lambda out: ["theta", "build", "--C", c_file, "--A", a_file, "--J", j_file,
                         "--seed", "11", "--out", out],
            tmp_path)
        assert got["theta"]["degree"] == 32
        assert got["P"]["rows"] == 1

    @pytest.mark.parametrize("rows,entries",
                             [("abc", [[[]]]), (float("inf"), [[[]]]), (1, 5), (1, [5])])
    def test_malformed_matrix_exit_code(self, rows, entries, ctx, tmp_path, capsys):
        from grasschur import SuperMatrix

        c_file = tmp_path / "c.json"
        c_file.write_text(json.dumps({"rows": rows, "cols": 1, "entries": entries}))  # inf allowed
        a_file = write(tmp_path / "a.json", matrix_to_obj(SuperMatrix.from_body(ctx, [[0.4]])))
        j_file = write(tmp_path / "j.json", matrix_to_obj(SuperMatrix.from_body(ctx, [[1.0]])))
        assert main(["theta", "build", "--C", str(c_file), "--A", a_file, "--J", j_file]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")
