"""One workload process: import, warm up, run the operations, check the outputs.

Started by run.py; prints one JSON object as its last line of output.

Modes:
  setup  import and warm up, then report the set-up time
  run    set up, then run whole cycles over the input pools with tracing off
  trace  set up, then one cycle with each operation untraced and then traced
  smoke  every operation kind of every workload once on its smallest input
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _import_package():
    sys.path.insert(0, str(SRC))
    import grasschur
    import grasschur.cli  # noqa: F401  (set-up covers the CLI import)

    if Path(grasschur.__file__).resolve().parent != (SRC / "grasschur").resolve():
        raise SystemExit(f"grasschur imported from {grasschur.__file__}, not {SRC}")
    import workloads
    import tracer

    return workloads, tracer


def ref_loop() -> float:
    """A fixed pure-Python loop; its time tracks the host, not the package."""
    began = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - began


class Runner:
    """Runs operations, keeps their latencies and checks their outputs."""

    def __init__(self, workload, pools):
        self.workload = workload
        self.pools = pools          # pools[k][i]: input i of kind k
        self.done = [0] * len(pools)  # operations run so far, per kind
        self.latencies: list[float] = []
        self.raised: dict[str, int] = {}
        self.refs: dict[tuple[int, int], object] = {}   # first output of each input
        self.repeats: dict[tuple[int, int], int] = {}   # later outputs equal to it
        self.odd: list[tuple[int, int, object]] = []    # later outputs that differ

    def one(self, k: int, i: int) -> None:
        kind = self.workload.kinds[k]
        inp = self.pools[k][i]
        key = (k, i)
        began = time.perf_counter()
        try:
            raw = kind.run(inp)
        except Exception:  # a failed operation is counted, not fatal
            self.latencies.append(time.perf_counter() - began)
            if kind.name not in self.raised:
                traceback.print_exc(file=sys.stderr)
            self.raised[kind.name] = self.raised.get(kind.name, 0) + 1
            return
        self.latencies.append(time.perf_counter() - began)
        value = kind.collect(inp, raw)
        if key not in self.refs:
            self.refs[key] = value
            self.repeats[key] = 1
        elif value == self.refs[key]:
            self.repeats[key] += 1
        else:
            self.odd.append((k, i, value))

    def cycle(self, rounds: int) -> None:
        """Rounds of one operation per kind, the kinds in a fixed order; each kind
        goes on through its pool from where the previous cycle stopped."""
        for _ in range(rounds):
            for k, pool in enumerate(self.pools):
                self.one(k, self.done[k] % len(pool))
                self.done[k] += 1

    def failures(self) -> int:
        failed = sum(self.raised.values())
        checks = [(k, i, value, self.repeats[(k, i)]) for (k, i), value in self.refs.items()]
        checks += [(k, i, value, 1) for k, i, value in self.odd]
        for k, i, value, count in checks:
            kind = self.workload.kinds[k]
            try:
                kind.check(self.pools[k][i], value)
            except Exception as exc:  # CheckFailed, or a check that could not run
                print(f"check failed: {self.workload.name}/{kind.name}[{i}]: {exc!r}",
                      file=sys.stderr)
                failed += count
        return failed


def _pools(workload, seed, workdir):
    return [[workload.make_input(seed, k, i, workdir) for i in range(workload.pool(k))]
            for k in range(len(workload.kinds))]


def _setup(workload, seed, workdir):
    """Warm-up on each kind's smallest input (input 0); returns its duration."""
    warm = [workload.warmup_input(seed, k, workdir) for k in range(len(workload.kinds))]
    began = time.perf_counter()
    for kind, inp in zip(workload.kinds, warm):
        kind.run(inp)
    return time.perf_counter() - began


def _latency_metrics(runner):
    latencies = sorted(runner.latencies)
    n = len(latencies)
    beyond = min(10, n - 1)  # the highest percentile with ten samples beyond it
    return {
        "ops": n,
        "busy_s": sum(latencies),
        "p50_s": statistics.median(latencies),
        "tail_s": latencies[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace", "smoke"), required=True)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the launcher started this process")
    args = parser.parse_args(argv)

    workloads, tracer = _import_package()
    imported = time.monotonic() - args.spawned_at
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        if args.mode == "smoke":
            result = _smoke(workloads, tracer, args.seed, workdir)
        else:
            result = _measure(workloads, tracer, args, imported, workdir)
    print(json.dumps(result))
    return 0


def _measure(workloads, tracer, args, imported, workdir):
    workload = workloads.WORKLOADS[args.workload]
    warm_s = _setup(workload, args.seed, workdir)
    result = {"setup_s": imported + warm_s}
    if args.mode == "setup":
        return result
    pools = _pools(workload, args.seed, workdir)
    ref = [ref_loop() for _ in range(5)]
    if args.mode == "run":
        runner = Runner(workload, pools)
        for _ in range(workload.cycles(args.seconds)):
            runner.cycle(workload.rounds)
        result.update(_latency_metrics(runner))
        # before the checks, whose own allocations could set the peak
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = runner.failures()
    else:
        # each operation runs untraced and then traced, back to back, so the
        # host's drift cancels out of the overhead
        plain = Runner(workload, pools)
        traced = Runner(workload, pools)
        rec = tracer.Tracer()
        for i in range(workload.rounds):
            for k, pool in enumerate(pools):
                plain.one(k, i % len(pool))
                rec.install()
                try:
                    traced.one(k, i % len(pool))
                finally:
                    rec.uninstall()
        layers = rec.summarize(len(traced.latencies))
        rec.save(OUT / f"spans-{workload.name}.npz")
        untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
        layers["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
        result["layers"] = layers
        result["ops"] = len(plain.latencies) + len(traced.latencies)
        result["spans"] = len(rec.sid)
        failed = plain.failures() + traced.failures()
    ref += [ref_loop() for _ in range(5)]
    result["ref_loop_start_s"] = statistics.median(ref[:5])
    result["ref_loop_end_s"] = statistics.median(ref[5:])
    result["ref_loop_s"] = statistics.median(ref)
    result["failed"] = failed
    return result


def _smoke(workloads, tracer, seed, workdir):
    """Each kind once on its smallest input, every check applied: once untraced and
    twice traced, and the two traced passes must give identical counts."""
    attempted = failed = 0
    layers = {}
    for workload in workloads.WORKLOADS.values():
        pools = [[workload.warmup_input(seed, k, workdir)] for k in range(len(workload.kinds))]
        counts = []
        for traced in (False, True, True):
            runner = Runner(workload, pools)
            rec = tracer.Tracer()
            if traced:
                rec.install()
            try:
                runner.cycle(1)
            finally:
                rec.uninstall()
            if traced:
                layers = rec.summarize(len(runner.latencies))
                counts.append({k: v for k, v in layers.items() if not tracer.is_time(k)})
            attempted += len(runner.latencies)
            failed += runner.failures()
        if counts[0] != counts[1]:
            print(f"{workload.name}: counts differ between traced passes", file=sys.stderr)
            failed += 1
    return {"attempted": attempted, "failed": failed, "layers": sorted(layers)}


if __name__ == "__main__":
    sys.exit(main())
