"""Command-line front end: ``grasschur <area> <verb> [flags]``.

Every pipeline reads and writes the canonical JSON formats.  Exit codes:
0 success, 1 usage error, 2 domain error (body zero, not superpositive, ...).
Randomized verification (theta kernel sampling) is seeded, so identical inputs
and seed produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialization as ser
from .algebra import AlgebraContext, classify, invert, kth_root, mul
from .errors import GrasschurError, SerializationError
from .schur import blaschke_factor, build_theta, np_solve, schur_algorithm, stein_solve
from .toeplitz import extend, extension_params, verify_extension

USAGE_ERROR = 1
DOMAIN_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the CLI reserves 2 for domain errors
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--generators", type=int, default=None, help="generator count N")
    parser.add_argument("--degree", type=int, default=None, help="series truncation degree")
    parser.add_argument("--tol-body", type=float, default=None, help="body-nonzero tolerance")
    parser.add_argument("--tol-eq", type=float, default=None, help="reconstruction tolerance")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--config", type=Path, default=None, help="config file (canonical JSON)")
    parser.add_argument("--out", type=Path, default=None, help="output file (default stdout)")


def _context(args) -> AlgebraContext:
    base = {"generators": 8, "degree": 32, "tol_body": 1e-10, "tol_eq": 1e-9}
    if args.config is not None:
        config = _load(args.config)
        if not isinstance(config, dict):
            raise SerializationError(f"config {args.config} must hold an object")
        base.update(config)
    if args.generators is not None:
        base["generators"] = args.generators
    if args.degree is not None:
        base["degree"] = args.degree
    if getattr(args, "tol_body", None) is not None:
        base["tol_body"] = args.tol_body
    if getattr(args, "tol_eq", None) is not None:
        base["tol_eq"] = args.tol_eq
    return ser.config_from_obj(base)


def _load(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(f"cannot read {path}: {exc}") from exc


def _emit(args, obj) -> None:
    text = ser.dumps(obj)
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grasschur", description=__doc__)
    areas = parser.add_subparsers(dest="area", required=True)

    algebra = areas.add_parser("algebra", help="supernumber arithmetic").add_subparsers(
        dest="verb", required=True)
    for verb, extra in (
        ("invert", []),
        ("classify", []),
        ("sqrt", [("--k", dict(type=int, default=2, help="root order"))]),
        ("mul", [("--rhs", dict(type=Path, required=True, help="right factor file"))]),
    ):
        sub = algebra.add_parser(verb)
        sub.add_argument("--in", dest="infile", type=Path, required=True, help="supernumber file")
        for flag, kwargs in extra:
            sub.add_argument(flag, **kwargs)
        _add_common(sub)

    toeplitz = areas.add_parser("toeplitz", help="Toeplitz one-step extension").add_subparsers(
        dest="verb", required=True)
    ext = toeplitz.add_parser("extend")
    ext.add_argument("--spec", type=Path, required=True, help="Toeplitz spec file")
    ext.add_argument("--eta", type=Path, required=True, help="superdisk parameter file")
    ext.add_argument("--params-only", action="store_true", help="emit the superdisk only")
    _add_common(ext)

    np_area = areas.add_parser("np", help="Nevanlinna-Pick interpolation").add_subparsers(
        dest="verb", required=True)
    solve = np_area.add_parser("solve")
    solve.add_argument("--data", type=Path, required=True, help="interpolation data file")
    solve.add_argument("--sigma", type=Path, default=None, help="Schur parameter series file")
    _add_common(solve)

    schur = areas.add_parser("schur", help="the Schur algorithm").add_subparsers(
        dest="verb", required=True)
    run = schur.add_parser("run")
    run.add_argument("--series", type=Path, required=True, help="scalar series file")
    run.add_argument("--max-steps", type=int, required=True)
    _add_common(run)

    blaschke = areas.add_parser("blaschke", help="Blaschke factors").add_subparsers(
        dest="verb", required=True)
    evl = blaschke.add_parser("eval")
    evl.add_argument("--a", type=Path, required=True, help="zero datum a")
    evl.add_argument("--c", type=Path, required=True, help="output datum c")
    evl.add_argument("--p", type=Path, required=True, help="weight p")
    evl.add_argument("--at", type=Path, required=True, help="evaluation point")
    _add_common(evl)

    theta = areas.add_parser("theta", help="theta functions").add_subparsers(
        dest="verb", required=True)
    build = theta.add_parser("build")
    build.add_argument("--C", dest="cfile", type=Path, required=True, help="output matrix C")
    build.add_argument("--A", dest="afile", type=Path, required=True, help="state matrix A")
    build.add_argument("--J", dest="jfile", type=Path, required=True, help="signature matrix J")
    build.add_argument("--P", dest="pfile", type=Path, default=None,
                       help="Gram matrix P (default: Stein fixed point)")
    _add_common(build)
    return parser


def _run_algebra(args, context) -> None:
    z = ser.supernumber_from_obj(_load(args.infile), context)
    if args.verb == "invert":
        _emit(args, ser.supernumber_to_obj(invert(z)))
    elif args.verb == "sqrt":
        _emit(args, ser.supernumber_to_obj(kth_root(z, args.k)))
    elif args.verb == "mul":
        w = ser.supernumber_from_obj(_load(args.rhs), context)
        _emit(args, ser.supernumber_to_obj(mul(z, w)))
    else:
        report = classify(z)
        _emit(args, {
            "is_real": report.is_real,
            "is_even": report.is_even,
            "is_odd": report.is_odd,
            "is_superpositive": report.is_superpositive,
            "is_supernonnegative": report.is_supernonnegative,
            "body": {"re": report.body.real, "im": report.body.imag},
            "soul": ser.supernumber_to_obj(report.soul),
        })


def _run_toeplitz(args, context) -> None:
    spec = ser.toeplitz_spec_from_obj(_load(args.spec), context)
    eta = ser.supernumber_from_obj(_load(args.eta), context)
    params = extension_params(spec)
    params_obj = {
        "center": ser.supernumber_to_obj(params.center),
        "left_radius": ser.supernumber_to_obj(params.left_radius),
        "right_radius": ser.supernumber_to_obj(params.right_radius),
    }
    if args.params_only:
        _emit(args, params_obj)
        return
    extended = extend(spec, eta, params)
    _emit(args, {
        "spec": ser.toeplitz_spec_to_obj(extended),
        "superdisk": params_obj,
        "verified_superpositive": verify_extension(extended),
    })


def _run_np(args, context) -> None:
    data = ser.interpolation_data_from_obj(_load(args.data), context)
    sigma = None
    if args.sigma is not None:
        sigma = ser.series_from_obj(_load(args.sigma), context)
    solution = np_solve(data, sigma, rng=np.random.default_rng(args.seed))
    _emit(args, {
        "solution": ser.series_to_obj(solution.series),
        "pick": ser.matrix_to_obj(solution.pick),
        "node_residuals": list(solution.node_residuals),
    })


def _run_schur(args, context) -> None:
    series = ser.series_from_obj(_load(args.series), context)
    chain = schur_algorithm(series, args.max_steps)
    _emit(args, {
        "rhos": [ser.supernumber_to_obj(r) for r in chain.rhos],
        "rho_bodies": [{"re": r.body.real, "im": r.body.imag} for r in chain.rhos],
        "steps": chain.steps,
        "termination": chain.termination,
    })


def _run_blaschke(args, context) -> None:
    a = ser.supernumber_from_obj(_load(args.a), context)
    c = ser.supernumber_from_obj(_load(args.c), context)
    p = ser.supernumber_from_obj(_load(args.p), context)
    at = ser.supernumber_from_obj(_load(args.at), context)
    factor = blaschke_factor(a, c, p)
    _emit(args, {
        "value": ser.supernumber_to_obj(factor.eval_at(at)),
        "omega": ser.supernumber_to_obj(factor.omega),
        "series": ser.series_to_obj(factor.series),
    })


def _run_theta(args, context) -> None:
    c = ser.matrix_from_obj(_load(args.cfile), context)
    a = ser.matrix_from_obj(_load(args.afile), context)
    j = ser.matrix_from_obj(_load(args.jfile), context)
    if args.pfile is not None:
        p = ser.matrix_from_obj(_load(args.pfile), context)
    else:
        p = stein_solve(c, a, j)
    theta = build_theta(c, a, p, j, rng=np.random.default_rng(args.seed))
    _emit(args, {
        "theta": ser.series_to_obj(theta.series),
        "P": ser.matrix_to_obj(theta.p),
    })


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        context = _context(args)
        handler = {
            "algebra": _run_algebra,
            "toeplitz": _run_toeplitz,
            "np": _run_np,
            "schur": _run_schur,
            "blaschke": _run_blaschke,
            "theta": _run_theta,
        }[args.area]
        handler(args, context)
    except GrasschurError as exc:
        sys.stderr.write(f"error[{exc.code}]: {exc}\n")
        return DOMAIN_ERROR
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return DOMAIN_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
