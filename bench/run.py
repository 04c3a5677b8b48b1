"""grasschur benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout that holds ``src/grasschur``:

    python3 bench/run.py --workload schur_mix --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one after another
    python3 bench/run.py --smoke                      # each operation once, all checks

One caller in one process, no threads: each workload process runs its
operation kinds round-robin and waits for each result before the next call.
Inputs come from ``--seed`` and are built before timing; outputs are checked
after it.  ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json;
``--trace 1`` runs each operation of one cycle untraced and then traced and
reports the per-layer metrics.  The last line of output is one JSON object;
the lines before it give the same numbers for people, with the tail's
percentile and sample count and the failed share.

Set-up time is measured in fresh processes: from the launcher starting the
process, through importing grasschur (with its CLI and numpy) and one warm-up
call per operation kind, input generation excluded.  It is taken in
``SETUP_RUNS`` processes and reported as their median.

BLAS and OpenMP are pinned to one thread: the matrices here are at most 8x8.
Only the standard library is used here; the workload processes add numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("schur_mix", "dense_n8", "sparse_n64")
SETUP_RUNS = 5          # the measuring process plus four set-up-only processes
DEADLINE_S = 170.0      # the whole command, so it ends within 180 s
WORKER_ADDED = {"trace.overhead_share", "host.ref_loop_s"}  # not from the span summary
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in SINGLE_THREAD})
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(mode: str, args, deadline: float, workload: str = "") -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time")
    spawned = time.monotonic()
    command = [sys.executable, str(WORKER), "--mode", mode, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--spawned-at", repr(spawned)]
    with subprocess.Popen(command, stdout=subprocess.PIPE, env=_environment(), cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} {workload}: no result within the time limit")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} {workload}: worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def _end_to_end(name: str, args, deadline: float, spec: dict) -> dict:
    setups = [_worker("setup", args, deadline, name)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    run = _worker("run", args, deadline, name)
    setups.append(run["setup_s"])
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": run["ops"] / run["busy_s"],
        "latency_p50_ms": 1e3 * run["p50_s"],
        "latency_tail_ms": 1e3 * run["tail_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(f"{name} seed={args.seed} ops={run['ops']}: " + "  ".join(
        f"{key}={value:.6g} {units[key]}"
        + (f" (p{run['tail_percentile']:.1f}, {run['tail_beyond']} of {run['ops']} beyond)"
           if key == "latency_tail_ms" else "")
        for key, value in values.items())
        + f"  failed_share={run['failed'] / run['ops']:.6g} ratio ({run['failed']}/{run['ops']})"
        + f"  host.ref_loop_s={run['ref_loop_start_s']:.4f}->{run['ref_loop_end_s']:.4f} s")
    return _result(run["failed"], run["ops"], values, units)


def _per_layer(name: str, args, deadline: float, spec: dict) -> dict:
    run = _worker("trace", args, deadline, name)
    values = dict(run["layers"])
    values["host.ref_loop_s"] = run["ref_loop_s"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(values) != set(units):
        raise BenchError(f"trace metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    print(f"{name} seed={args.seed} traced: {run['ops']} ops, {run['spans']} spans")
    for key in units:
        print(f"  {key} = {values[key]:.6g} {units[key]}")
    return _result(run["failed"], run["ops"], values, units)


def _result(failed: int, attempted: int, values: dict, units: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every operation kind once at its smallest size, no timing")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "grasschur" / "__init__.py").is_file():
        print(f"error: no grasschur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = _spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.smoke:
            smoke = _worker("smoke", args, deadline)
            missing = {m["name"] for m in spec["per_layer"]} - set(smoke["layers"]) - WORKER_ADDED
            print(f"smoke: {smoke['attempted']} operations, {smoke['failed']} failed, "
                  f"per-layer metrics missing: {sorted(missing) or 'none'}")
            return 0 if smoke["failed"] == 0 and not missing else 1
        measure = _per_layer if args.trace else _end_to_end
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + DEADLINE_S
            print(json.dumps(measure(name, args, deadline, spec)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
