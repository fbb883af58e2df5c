"""One measured run of one workload, in the interpreter that runs this file.

run.py starts this file in a fresh interpreter for every run, because
`isa.decode_cached` and the `microarch` shift-cost caches live as long as
the process and every real serialrv invocation starts with them empty.

Usage: python worker.py --workload NAME --seed N (--seconds S | --rounds R)
                        [--trace] [--out TRACE.json]
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

import reference
from tracer import NullTracer, Tracer
from workloads import WORKLOADS, Meter

MAX_FAILURE_MESSAGES = 10


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float = 0.0, rounds: int = 0,
        trace: bool = False) -> dict:
    """Run whole rounds until `seconds` have passed, or exactly `rounds` rounds.

    The first `prefix_rounds` rounds are the fixed prefix: the sim_digest,
    the peak RSS and the traced simulated counts are taken over them only,
    so they do not depend on how fast the host is. Times are returned
    both as measured and scaled by the reference loop (see reference.py).
    """
    wl = WORKLOADS[workload](seed)
    if rounds and rounds < wl.prefix_rounds:
        raise ValueError(f"rounds must be at least the prefix of {wl.prefix_rounds}")
    tracer = Tracer() if trace else NullTracer()
    meter = Meter(tracer)
    failures = []
    attempted = failed = work = done = 0
    digest = hashlib.sha256()
    prefix = None
    clock = time.perf_counter
    with tracer.installed():
        t0 = clock()
        while True:
            with tracer.span("harness.round"):
                r = wl.run_round(meter)
            done += 1
            attempted += r.attempted
            failed += r.failed
            work += r.work
            failures.extend(r.failures[:MAX_FAILURE_MESSAGES - len(failures)])
            if done <= wl.prefix_rounds:
                for rec in r.records:
                    digest.update(rec.encode() + b"\n")
                if done == wl.prefix_rounds:
                    prefix = {"sim_digest": digest.hexdigest()[:16],
                              "cells": attempted,
                              "peak_rss_mib": peak_rss_mib(),
                              "sim": tracer.sim_snapshot() if trace else {}}
            if rounds:
                if done >= rounds:
                    break
            elif done >= wl.prefix_rounds and clock() - t0 >= seconds:
                break
        meter.sample()
    times = scaled_times(meter, t0)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "rounds": done, "attempted": attempted, "failed": failed,
        "work": work, "work_name": wl.work_name,
        "prefix": prefix, "failures": failures, **times,
    }
    if trace:
        # per-layer times are scaled by the run's overall reference factor
        k = times["wall_s"] / times["raw_wall_s"]
        per_unit = {"s": k, "ns": k, "1/s": 1 / k}
        result["layers"] = {name: (value * per_unit.get(unit, 1), unit) for name, (value, unit)
                            in tracer.layer_metrics(prefix["sim"]).items()}
        result["trace"] = tracer.dump()
    return result


def scaled_times(meter: Meter, t0: float) -> dict:
    """Cell and wall times, raw and scaled by the reference loop.

    The wall time runs from t0 to the last reference sample and excludes
    the samples. It is split at the samples into one piece per cell, and
    each piece (the cell, and the work before it such as kernel builds) is
    scaled by its cell's factor.
    """
    factors = reference.scale_factors(meter.ref_s)
    bounds = [t0] + meter.marks[1:]
    pieces = [bounds[i + 1] - bounds[i] - meter.ref_s[i] for i in range(len(factors))]
    return {
        "cell_s": [c * f for c, f in zip(meter.cell_s, factors)],
        "wall_s": sum(p * f for p, f in zip(pieces, factors)),
        "raw_cell_s": meter.cell_s,
        "raw_wall_s": sum(pieces),
        "ref_s": meter.ref_s,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", help="write spans and the per-op table here (traced runs)")
    args = ap.parse_args(argv)
    if (args.seconds > 0) == (args.rounds > 0):
        ap.error("give exactly one of --seconds and --rounds")
    result = run(args.workload, args.seed, args.seconds, args.rounds, args.trace)
    spans = result.pop("trace", None)
    if args.out and spans is not None:
        with open(args.out, "w") as f:
            json.dump({k: result[k] for k in ("workload", "seed", "rounds", "prefix")}
                      | {"layers": result["layers"]} | spans, f)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
