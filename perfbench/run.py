"""Benchmark of the nonmarkov chain: one workload per process, from a seed.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`, never from an installed copy, and the benchmark exits 2 without a
result when `src/nonmarkov` is missing. Every file it writes goes under
`perfbench/out/`.

A run repeats whole rounds of the workload's fixed list of operations
while the next round still fits in `--seconds`, checks every output and
prints one JSON line last. With `--trace 0` it reports the end-to-end
metrics: `setup_s` (median over separate set-up processes of process start
to the end of `import nonmarkov` plus input generation), `run_s` (mean
round time, operations only, checks excluded) and `peak_rss_mb`
(`ru_maxrss` of this process). With `--trace 1` it alternates untraced and
traced rounds and reports the mean per-layer metrics of the traced ones,
with `trace.overhead_s` the traced minus the untraced round time. It also
writes the spans to `perfbench/out/trace-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: with OpenBLAS's default of one thread per core, the long
# Volterra dot products varied by over 10 % between runs on a shared 2-core
# machine. Set before numpy is imported here or in any child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7


def import_program():
    """Import nonmarkov from this checkout's src/ or exit 2."""
    if not (SRC / "nonmarkov" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'nonmarkov'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nonmarkov

    if Path(nonmarkov.__file__).resolve().parent != (SRC / "nonmarkov").resolve():
        print(f"perfbench: imported nonmarkov from {nonmarkov.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def probe_setup(workload: str, seed: int, workdir: Path) -> None:
    """The set-up a user's process pays: import the program, make the inputs."""
    import_program()
    import workloads

    workloads.make_inputs(workload, seed, workdir)


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of SETUP_REPEATS set-up processes, start to exit."""
    times = []
    for i in range(SETUP_REPEATS):
        target = workdir / f"setup{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", str(target),
                "--workload", workload, "--seed", str(seed)]
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode or 2)
        shutil.rmtree(target)
    return statistics.median(times)


class Round:
    """Outcome of one pass over a workload's operations."""

    def __init__(self):
        self.times: dict = {}  # operation name -> seconds in the program
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.counts: dict = {}


def run_round(ops, tracer=None) -> Round:
    result = Round()
    for op in ops:
        result.attempted += 1
        if tracer is not None:
            tracer.op = op.name
        failure = None
        start = time.perf_counter()
        try:
            output = op.run()
        except Exception:
            failure = traceback.format_exc()
        result.times[op.name] = time.perf_counter() - start
        if failure is None:
            try:
                counts = op.check(output) or {}
            except Exception as exc:  # output that cannot be read is wrong output too
                result.wrong += 1
                failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            result.failed += 1
            print(f"perfbench: {op.name} failed: {failure}", file=sys.stderr)
            continue
        for key, value in counts.items():
            result.counts[key] = result.counts.get(key, 0) + value
    if tracer is not None:
        tracer.op = None
    return result


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup is not None:
        probe_setup(args.workload, args.seed, args.probe_setup)
        return 0

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    # Temporary files of the program or its sweep workers stay in the checkout.
    (OUT / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = time_setup(args.workload, args.seed, workdir)
        inputs = workloads.make_inputs(args.workload, args.seed, workdir)
        ops = workloads.build_ops(args.workload, inputs, workdir)
        tracer = tracing.Tracer() if args.trace else None
        plain, traced, per_round = [], [], []
        started = time.perf_counter()
        longest = 0.0
        while True:
            lap = time.perf_counter()
            plain.append(run_round(ops))
            if tracer is not None:
                first = len(tracer.spans)
                tracer.install()
                try:
                    traced.append(run_round(ops, tracer))
                finally:
                    tracer.uninstall()
                per_round.append(tracing.summarize(tracer.spans, first))
            longest = max(longest, time.perf_counter() - lap)
            if time.perf_counter() - started + longest > args.seconds:
                break
        rounds = plain + traced
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        correct = all(r.wrong == 0 for r in rounds)
        # The mean, not the median: a run holds only 3 to 5 rounds, and the
        # machine's speed drifts over seconds, which the mean averages out.
        run_s = statistics.mean(sum(r.times.values()) for r in plain)
        if tracer is None:
            metrics = {
                "setup_s": metric(setup_s, "s"),
                "run_s": metric(run_s, "s"),
                "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            for summary, r in zip(per_round, traced):
                summary.update({k: r.counts.get(k, 0) for k in tracing.OUTPUT_COUNTS})
                summary["trace.overhead_s"] = sum(r.times.values()) - run_s
            metrics = {
                name: metric(statistics.mean(s[name] for s in per_round), tracing.unit(name))
                for name in tracing.PER_LAYER
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    record = {**result, "rounds": [r.times for r in plain + traced]}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
