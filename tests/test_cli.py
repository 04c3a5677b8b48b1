"""CLI golden round-trips, byte-stable outputs, and exit codes."""
import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import grasschur
from grasschur import AlgebraContext, SuperMatrix, mul
from grasschur.cli import _context, _emit, build_parser, main
from grasschur.sampling import random_soul, random_supernumber
from grasschur.errors import SerializationError
from grasschur.series import SeriesMatrix
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
    """Run a command twice into fresh files and once without ``--out``; the files and stdout
    must be byte-identical and canonical, that is, unchanged when parsed and written again
    by ``json.dumps``."""
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / f"out_{tag}.json"
        argv = argv_builder(str(out))
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    at = argv.index("--out")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv[:at] + argv[at + 2:]) == 0
    assert stdout.getvalue().encode("ascii") == outputs[0]
    text = outputs[0].decode("ascii")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    return json.loads(text)


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

    def test_overflowing_product_exit_code(self, tmp_path, capsys):
        # 1e200 * 1e200 overflows to infinity, which has no canonical JSON form
        a = write(tmp_path / "a.json", [{"idx": [], "re": 1e200, "im": 0.0}, {"idx": [1], "re": 1e200, "im": 0.0}])
        out = tmp_path / "out.json"
        assert main(["algebra", "mul", "--in", a, "--rhs", a, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")
        assert not out.exists()

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

    @pytest.mark.parametrize("argv", [
        ["algebra", "invert", "--in", "z.json"], ["algebra", "mul", "--in", "z.json", "--rhs", "w.json"],
        ["toeplitz", "extend", "--spec", "s.json", "--eta", "e.json"], ["np", "solve", "--data", "d.json"],
        ["schur", "run", "--series", "s.json", "--max-steps", "3"],
        ["blaschke", "eval", "--a", "a.json", "--c", "c.json", "--p", "p.json", "--at", "z.json"],
        ["theta", "build", "--C", "c.json", "--A", "a.json", "--J", "j.json"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_default_context_without_flags_or_config(self, argv):
        assert _context(build_parser().parse_args(argv)) == AlgebraContext(generators=8)

    @pytest.mark.parametrize("bad", ["NaN", '"abc"'])
    def test_malformed_coefficient_exit_code(self, bad, tmp_path, capsys):
        infile = tmp_path / "z.json"
        infile.write_text(f'[{{"idx": [], "re": {bad}, "im": 0.0}}]')
        assert main(["algebra", "invert", "--in", str(infile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("data", [b"\xff\xfe[1]", '[{"idx": [], "re": 1.0, "im": 0.0, "note": "caf\xe9"}]'.encode("latin-1")],
                             ids=["utf-16-mark", "latin-1"])
    def test_input_that_is_not_utf8_exit_code(self, data, tmp_path, capsys):
        infile = tmp_path / "z.json"
        infile.write_bytes(data)
        assert main(["algebra", "invert", "--in", str(infile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("text", ['[{"generators": 4}]', '{"generators": 4',
                                      '{"generators": [4]}', '{"generators": 1e400}',
                                      '{"tol_body": NaN}', '{"tol_eq": 1e400}',
                                      # wrong JSON types are rejected, never truncated or coerced
                                      '{"generators": "3"}', '{"generators": 2.7}', '{"generators": true}',
                                      '{"tol_eq": true}', '{"tol_body": "1e-3"}', '{"degree": 4.5}'])
    def test_malformed_config_exit_code(self, text, ctx, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        z_file = write(tmp_path / "z.json", supernumber_to_obj(ctx.scalar(2.0)))
        assert main(["algebra", "classify", "--in", z_file, "--config", str(config)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("flag", ["--tol-eq", "--tol-body"])
    def test_infinite_tolerance_flag_exit_code(self, flag, ctx, tmp_path, capsys):
        z_file = write(tmp_path / "z.json", supernumber_to_obj(ctx.scalar(2.0)))
        assert main(["algebra", "classify", "--in", z_file, flag, "inf"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("k", ["1", "0", "-3"])
    def test_sqrt_order_below_two_exit_code(self, k, ctx, tmp_path, capsys):
        z_file = write(tmp_path / "z.json", supernumber_to_obj(ctx.scalar(2.0)))
        assert main(["algebra", "sqrt", "--in", z_file, "--k", k]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[domain-violation]")


class TestNoPartialOutput:
    """A value without canonical form is refused before the first byte is written."""

    @pytest.mark.parametrize("where", ["series coefficient", "last dict key"])
    def test_late_nan_leaves_no_file_and_empty_stdout(self, where, ctx, tmp_path, capsys):
        eye = SuperMatrix.identity(ctx, 2)
        nan = SuperMatrix.from_body(ctx, [[1.0, 0.0], [0.0, float("nan")]])
        value = ({"a": SeriesMatrix.from_coeffs([eye, eye, eye, nan])} if where == "series coefficient"
                 else {"a": SeriesMatrix.from_coeffs([eye, eye]), "b": [1.0, 2.0], "z": float("nan")})
        out = tmp_path / "out.json"
        for target in (out, None):
            with pytest.raises(SerializationError):
                _emit(argparse.Namespace(out=target), value)
        assert not out.exists()
        assert capsys.readouterr().out == ""


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


class TestMalformedInputs:
    """Malformed fields that once escaped as tracebacks, or were accepted silently."""

    def test_toeplitz_symbols_not_a_list(self, ctx, tmp_path, capsys):
        spec_file = write(tmp_path / "spec.json", {"symbols": 5})
        eta_file = write(tmp_path / "eta.json", supernumber_to_obj(ctx.zero()))
        assert main(["toeplitz", "extend", "--spec", spec_file, "--eta", eta_file]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")

    @pytest.mark.parametrize("field,text", [("degree", '"abc"'), ("degree", "1e400"),
                                            ("coeffs", "5"), ("exact", '"yes"'),
                                            ("degree", "0.9"), ("degree", "false")])
    @pytest.mark.parametrize("command", ["np", "schur"])
    def test_malformed_series_field(self, command, field, text, ctx, tmp_path, capsys):
        series = series_to_obj(SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[0.1]])]))
        series[field] = "__FIELD__"
        series_file = tmp_path / "s.json"
        series_file.write_text(json.dumps(series).replace('"__FIELD__"', text))
        if command == "np":
            from grasschur.schur import InterpolationData

            data = InterpolationData((ctx.scalar(0.2),), (ctx.scalar(0.3),))
            data_file = write(tmp_path / "d.json", interpolation_data_to_obj(data))
            argv = ["np", "solve", "--data", data_file, "--sigma", str(series_file)]
        else:
            argv = ["schur", "run", "--series", str(series_file), "--max-steps", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")


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

    def test_seed_changes_nothing(self, ctx, tmp_path):
        from grasschur.schur import InterpolationData

        rng = np.random.default_rng(5)
        nodes = (ctx.scalar(0.3) + random_soul(ctx, rng, terms=2, scale=0.05), ctx.scalar(-0.2j))
        values = (ctx.scalar(0.1) + random_soul(ctx, rng, terms=2, scale=0.05), ctx.scalar(0.25))
        data_file = write(tmp_path / "data.json", interpolation_data_to_obj(InterpolationData(nodes, values)))
        outputs = []
        for seed in ("0", "7"):
            out = tmp_path / f"out_{seed}.json"
            assert main(["np", "solve", "--data", data_file, "--seed", seed, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_non_schur_sigma_exit_code(self, ctx, tmp_path, capsys):
        from grasschur.schur import InterpolationData

        data = InterpolationData((ctx.scalar(0.2),), (ctx.scalar(0.3),))
        data_file = write(tmp_path / "d.json", interpolation_data_to_obj(data))
        sigma = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[1.2]])])  # |sigma| = 1.2 everywhere
        sigma_file = write(tmp_path / "sigma.json", series_to_obj(sigma))
        assert main(["np", "solve", "--data", data_file, "--sigma", sigma_file]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[not-schur]")

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

    def test_exact_constant_runs_to_max_steps(self, ctx, tmp_path):
        # an exact constant's higher coefficients are known zeros: the chain is rho, 0, 0
        rho = ctx.scalar(0.4 - 0.2j) + random_soul(ctx, np.random.default_rng(3), terms=2, scale=0.1)
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_scalar(rho)], exact=True)
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        got = run_twice(
            lambda out: ["schur", "run", "--series", series_file, "--max-steps", "3", "--out", out],
            tmp_path)
        assert got["steps"] == 3 and got["termination"] == "max_steps"
        rhos = [supernumber_from_obj(r, ctx) for r in got["rhos"]]
        assert rhos[0] == rho and rhos[1].is_zero() and rhos[2].is_zero()

    def test_non_schur_series_exit_code(self, ctx, tmp_path, capsys):
        # 0.6 + 0.6 z^5 truncated at degree 16: |s(1)| = 1.2, seen only past s_8
        bodies = [0.6, 0.0, 0.0, 0.0, 0.0, 0.6] + [0.0] * 11
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[b]]) for b in bodies])
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        assert main(["schur", "run", "--series", series_file, "--max-steps", "20"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[not-schur]")

    @pytest.mark.parametrize("steps", ["-1", "-3"])
    def test_negative_max_steps_exit_code(self, steps, ctx, tmp_path, capsys):
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[b]]) for b in (0.5, 0.25)])
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        assert main(["schur", "run", "--series", series_file, "--max-steps", steps]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[domain-violation]")


    def test_matrix_series_exit_code(self, ctx, tmp_path, capsys):
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, 0.1 * np.eye(2))])
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        assert main(["schur", "run", "--series", series_file, "--max-steps", "3"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[shape-mismatch]")

    def test_deep_membership_test_ends_in_too_large(self, tmp_path):
        # An exact series is tested through max_series_degree = 20000: the Toeplitz matrix
        # alone would take 6 GiB.  The child caps its own address space at 2 GiB, so a
        # missing check ends there in MemoryError, not in the host's memory.
        ctx = AlgebraContext(generators=4, max_series_degree=20000)
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[b]]) for b in (0.5, 0.25)], exact=True)
        series_file = write(tmp_path / "exact.json", series_to_obj(series))
        script = textwrap.dedent("""
            import resource, sys
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from grasschur.cli import main
            sys.exit(main(sys.argv[1:]))
        """)
        argv = ["schur", "run", "--series", series_file, "--max-steps", "3", "--generators", "4", "--degree", "20000"]
        path = os.pathsep.join([str(Path(grasschur.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
        done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
        err = done.stderr.splitlines()
        assert done.returncode == 2 and len(err) == 1 and err[0].startswith("error[too-large]"), done.stderr

    def test_run_builds_no_section(self, ctx, tmp_path, monkeypatch):
        from grasschur import schur

        checked = []
        monkeypatch.setattr(schur, "_verify_section_vanishing", lambda *args: checked.append(args))
        monkeypatch.setattr(schur, "schur_section", lambda rho: checked.append(rho))
        series = SeriesMatrix.from_coeffs([SuperMatrix.from_body(ctx, [[b]]) for b in (0.5, 0.25, -0.1, 0.05)])
        series_file = write(tmp_path / "s.json", series_to_obj(series))
        got = run_twice(
            lambda out: ["schur", "run", "--series", series_file, "--max-steps", "3", "--out", out], tmp_path)
        assert got["steps"] == 3 and checked == []


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

    def test_singular_i_sub_a_exit_code(self, ctx, tmp_path, capsys):
        c_file = write(tmp_path / "c.json", matrix_to_obj(SuperMatrix.from_body(ctx, [[1.0], [1.0]])))
        a_file = write(tmp_path / "a.json", matrix_to_obj(SuperMatrix.identity(ctx, 1)))
        p_file = write(tmp_path / "p.json", matrix_to_obj(SuperMatrix.identity(ctx, 1)))
        j_file = write(tmp_path / "j.json",
                       matrix_to_obj(SuperMatrix.from_body(ctx, np.diag([1.0, -1.0]))))
        assert main(["theta", "build", "--C", c_file, "--A", a_file, "--J", j_file,
                     "--P", p_file]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[i-sub-a-singular]")

    @pytest.mark.parametrize("rows,entries",
                             [("abc", [[[]]]), (float("inf"), [[[]]]), (1, 5), (1, [5]), (0, []),
                              (1.5, [[[]]]), (True, [[[]]])])
    def test_malformed_matrix_exit_code(self, rows, entries, ctx, tmp_path, capsys):
        from grasschur import SuperMatrix

        c_file = tmp_path / "c.json"
        c_file.write_text(json.dumps({"rows": rows, "cols": 1, "entries": entries}))  # inf allowed
        a_file = write(tmp_path / "a.json", matrix_to_obj(SuperMatrix.from_body(ctx, [[0.4]])))
        j_file = write(tmp_path / "j.json", matrix_to_obj(SuperMatrix.from_body(ctx, [[1.0]])))
        assert main(["theta", "build", "--C", str(c_file), "--A", a_file, "--J", j_file]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error[serialization-error]")


def test_no_runtime_path_samples_the_kernel_identity(tmp_path, monkeypatch):
    from grasschur import schur
    from grasschur.schur import InterpolationData, build_theta, np_solve, stein_solve

    def sampled(*args):
        raise AssertionError("kernel_identity_residual called at runtime")

    monkeypatch.setattr(schur, "kernel_identity_residual", sampled)
    ctx = AlgebraContext(generators=8, max_series_degree=8)
    data = InterpolationData((ctx.scalar(0.3) + ctx.generator(1), ctx.scalar(-0.2j)),
                             (ctx.scalar(0.1), ctx.scalar(0.25) + ctx.generator(2)))
    np_solve(data)
    c, a, j = data.output_matrix(), data.state_matrix(), data.signature()
    build_theta(c, a, stein_solve(c, a, j), j)
    files = [write(tmp_path / f"{name}.json", matrix_to_obj(m)) for name, m in (("c", c), ("a", a), ("j", j))]
    assert main(["theta", "build", "--C", files[0], "--A", files[1], "--J", files[2],
                 "--out", str(tmp_path / "theta.json")]) == 0
