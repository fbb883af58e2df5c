import json
from pathlib import Path

import pytest

from serialrv import bench
from serialrv.microarch import CoreConfig

import worker
from tracer import PER_INSTRUCTION_TARGETS, SIM_CLASSES, SPAN_TARGETS, Tracer

TARGETS = SPAN_TARGETS + PER_INSTRUCTION_TARGETS


def _current():
    return [owner.__dict__[attr] for _, owner, attr in TARGETS]


def test_wrappers_restore_the_originals():
    before = _current()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            during = _current()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("leave the block by an exception")
    assert all(a is b for a, b in zip(before, _current()))


@pytest.mark.parametrize("workload", ["cosim-matrix", "kernel-suite", "decode-fuzz"])
def test_self_times_and_remainder_sum_to_the_traced_wall_time(workload):
    res = worker.run(workload, seed=3, rounds=worker.WORKLOADS[workload].prefix_rounds,
                     trace=True)
    layers = {k: v for k, (v, _) in res["layers"].items()}
    parts = [v for k, v in layers.items() if k.endswith(".self_s")]
    parts += [layers["trace.bookkeeping_s"], layers["trace.unattributed_s"]]
    assert sum(parts) == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.unattributed_s"] >= 0
    assert all(v >= 0 for v in parts)
    declared = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert set(layers) | {"trace.overhead_ratio"} == {m["name"] for m in declared["per_layer"]}


def test_cell_spans_have_parent_ids():
    res = worker.run("cosim-matrix", seed=3, rounds=worker.WORKLOADS["cosim-matrix"].prefix_rounds,
                     trace=True)
    spans = {s[0]: s for s in res["trace"]["spans"]}
    for sid, parent, op, width, start, end in spans.values():
        assert start <= end
        if op == "harness.round":
            assert parent is None
        elif op == "harness.cell":
            assert spans[parent][2] == "harness.round" and width in (1, 2, 4, 8, 16, 32)
        elif op in ("cosim.generate", "cosim.signature", "golden.from_image"):
            assert spans[parent][2] == "cosim.cosim_run"


def test_traced_simulated_counts_equal_execstats():
    tracer = Tracer()
    stats = []
    with tracer.installed():
        for variant, exts in (("rv32i", frozenset()), ("zkn", bench.KERNELS["sha256-compress"].zkn_exts)):
            kp = bench.build_sha256(variant)
            for w in (1, 8, 32):
                stats.append(bench.run_kernel(kp, CoreConfig(serial_width=w, extensions=exts))[0])
    snap = tracer.sim_snapshot()
    assert snap["microarch.sim_cycles"] == sum(s.cycles for s in stats)
    assert snap["microarch.sim_instret"] == sum(s.instret for s in stats)
    for c in SIM_CLASSES:
        assert snap[f"microarch.sim_cycles.{c}"] == sum(s.classes.get(c, (0, 0))[1] for s in stats)
