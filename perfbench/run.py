"""The serialrv benchmark: one workload, measured in fresh interpreters.

    python3 perfbench/run.py --workload {cosim-matrix,kernel-suite,decode-fuzz}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src. This
is a single-process, closed-loop batch run: one cell at a time, no threads.
All timings are host time, scaled by a reference loop (reference.py) with
the raw figures printed alongside; simulated cycles and instructions are
checked and counted as results, never timed.

--trace 0 measures set-up (median import time of the package in fresh
interpreters), then runs the workload for S seconds in a fresh
interpreter and reports the end-to-end metrics.

--trace 1 runs the workload for S seconds with the tracer's wrappers
installed and reports the per-layer metrics; spans and the per-op table go
to perfbench/out/. The same number of rounds is then run untraced, also in
a fresh interpreter, which gives trace.overhead_ratio and checks that
tracing does not change the sim_digest.

Human-readable lines come first; the last line of standard output is the
JSON result. The exit code is 0 when every correctness gate passed, 1 when
one failed, and 2 when the run itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# the names in workloads.WORKLOADS: run.py imports nothing from the package
WORKLOADS = ("cosim-matrix", "kernel-suite", "decode-fuzz")
SETUP_SAMPLES = 9
# Imports the package's entry modules in a fresh interpreter; prints the
# import time scaled by reference-loop samples taken around it, then raw.
SETUP_SNIPPET = """
import statistics, sys, time
sys.path.insert(0, {here!r})
import reference
before = [reference.sample() for _ in range(3)]
t = time.perf_counter()
import serialrv.bench, serialrv.cosim, serialrv.system
dt = time.perf_counter() - t
ref = statistics.median(before + [reference.sample() for _ in range(3)])
print(dt * reference.REF_S / ref, dt)
"""


MIN_BEYOND = 10


def tail(values, beyond: int = MIN_BEYOND):
    """The highest percentile with `beyond` samples above it, by nearest
    rank: the (beyond + 1)-th largest sample.

    Returns (percentile, value, n). The percentile follows n continuously,
    so a run with a few more or fewer cells moves it only a little. With
    fewer than 2 * beyond samples the median rank (p50) is returned.
    """
    s = sorted(values)
    n = len(s)
    if not n:
        raise ValueError("no samples")
    rank = n - beyond if n >= 2 * beyond else -(-n // 2)
    return 100.0 * rank / n, s[rank - 1], n


class RunError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # imports load cached bytecode, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args, timeout: float) -> str:
    """Run a fresh interpreter to completion; return its last stdout line."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError(f"{args[0]} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{args[0]} exited with code {proc.returncode}")
    return lines[-1]


def measure_setup() -> tuple:
    """Median (scaled, raw) time for a fresh interpreter to import the package."""
    snippet = SETUP_SNIPPET.format(here=str(HERE))
    run_child(["-c", snippet], timeout=60)  # writes the bytecode cache
    samples = [run_child(["-c", snippet], timeout=60).split() for _ in range(SETUP_SAMPLES)]
    return tuple(statistics.median(float(s[i]) for s in samples) for i in (0, 1))


def run_worker(workload: str, seed: int, timeout: float, *extra) -> dict:
    line = run_child([str(HERE / "worker.py"), "--workload", workload,
                      "--seed", str(seed), *extra], timeout)
    return json.loads(line)


def git_sha() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(res: dict, setup: tuple) -> dict:
    """The end-to-end metrics, from times scaled by the reference loop;
    the raw host figure follows each timing in the printed notes."""
    cell_ms = [t * 1e3 for t in res["cell_s"]]
    raw_ms = [t * 1e3 for t in res["raw_cell_s"]]
    p, tail_ms, n = tail(cell_ms)
    wall, raw_wall = res["wall_s"], res["raw_wall_s"]
    n_cells = len(cell_ms)
    return {
        "setup_s": (setup[0], "s", f"raw {setup[1]:.6g}"),
        "cells_per_s": (n_cells / wall, "1/s", f"raw {n_cells / raw_wall:.6g}"),
        "cell_ms_p50": (statistics.median(cell_ms), "ms", f"raw {statistics.median(raw_ms):.6g}"),
        "cell_ms_tail": (tail_ms, "ms", f"raw {tail(raw_ms)[1]:.6g}; p{p:.2f} of n={n}"),
        "work_per_s": (res["work"] / wall, "1/s",
                       f"raw {res['work'] / raw_wall:.6g}; = {res['work_name']}"),
        "peak_rss_mb": (res["prefix"]["peak_rss_mib"], "MiB", "after the fixed prefix"),
    }


def print_lines(metrics: dict) -> None:
    for name, (value, unit, *note) in metrics.items():
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<40} {text:>14} {unit:<6} {' '.join(note)}".rstrip())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "serialrv" / "__init__.py").is_file():
        print(f"error: no serialrv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    timeout = min(3 * args.seconds + 30, 80)

    print(f"# serialrv benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} git={git_sha()}")
    try:
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            res = run_worker(args.workload, args.seed, timeout, "--trace",
                             "--seconds", str(args.seconds), "--out", str(out))
            plain = run_worker(args.workload, args.seed, timeout,
                               "--rounds", str(res["rounds"]))
        else:
            setup = measure_setup()
            res = run_worker(args.workload, args.seed, timeout,
                             "--seconds", str(args.seconds))
    except (RunError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = res["attempted"], res["failed"]
    failures = res["failures"]
    if args.trace:
        attempted += plain["attempted"]
        failed += plain["failed"]
        failures += plain["failures"]
        digests = {res["prefix"]["sim_digest"], plain["prefix"]["sim_digest"]}
        if len(digests) > 1:
            failed += 1
            failures.append(f"sim_digest differs with tracing on and off: {sorted(digests)}")
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        metrics["trace.overhead_ratio"] = (res["wall_s"] / plain["wall_s"], "ratio")
        extra = {}
        print(f"# traced {res['rounds']} rounds; spans in {out.relative_to(ROOT)}")
    else:
        metrics = end_to_end(res, setup)
        extra = {res["work_name"]: metrics["work_per_s"][:2]}
        ref_ms = statistics.median(res["ref_s"]) * 1e3
        print(f"# {res['rounds']} rounds, {len(res['cell_s'])} cells in {res['raw_wall_s']:.3f} s "
              f"of host time; reference loop median {ref_ms:.4f} ms")
    extra["failed_ratio"] = (failed / attempted, "ratio", f"{failed}/{attempted}")
    print_lines(metrics)
    print_lines(extra)
    print(f"sim_digest {res['prefix']['sim_digest']} "
          f"(first {res['prefix']['cells']} cells, seed {args.seed})")
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)

    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
