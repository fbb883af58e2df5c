import json
from pathlib import Path

import pytest

from serialrv import bench, cosim, isa

import run
import worker

WORKLOADS = ["cosim-matrix", "kernel-suite", "decode-fuzz"]
REFERENCE = json.loads((Path(__file__).resolve().parent.parent / "reference.json").read_text())


def _prefix_run(workload, seed, trace=False):
    return worker.run(workload, seed, rounds=worker.WORKLOADS[workload].prefix_rounds,
                      trace=trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest_traced_or_not(workload):
    a = _prefix_run(workload, 11)
    b = _prefix_run(workload, 11, trace=True)
    c = _prefix_run(workload, 12)
    assert a["failed"] == b["failed"] == c["failed"] == 0
    assert a["prefix"]["sim_digest"] == b["prefix"]["sim_digest"]
    assert a["prefix"]["sim_digest"] != c["prefix"]["sim_digest"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_digest_matches_the_recorded_one(workload):
    seed = REFERENCE["default_seed"]
    assert _prefix_run(workload, seed)["prefix"]["sim_digest"] == REFERENCE["sim_digest"][workload]


def _flip_first_byte(result):
    stats, out = result
    return stats, bytes([out[0] ^ 1]) + out[1:]


def test_wrong_kernel_output_counts_as_failed(monkeypatch):
    real = bench.run_kernel
    monkeypatch.setattr(bench, "run_kernel", lambda *a, **k: _flip_first_byte(real(*a, **k)))
    res = _prefix_run("kernel-suite", 0)
    assert res["failed"] == res["attempted"] > 0
    assert res["failures"]


def test_width_dependent_signature_counts_as_failed(monkeypatch):
    real = cosim.cosim_run

    def skewed(torture, core):
        r = real(torture, core)
        if core.serial_width == 4:
            # passes on its own, but disagrees with the other widths
            r = r._replace(sig_micro="0" * 16, sig_golden="0" * 16)
        return r
    monkeypatch.setattr(cosim, "cosim_run", skewed)
    res = _prefix_run("cosim-matrix", 0)
    assert res["failed"] == res["attempted"] > 0


def test_wrong_reencoding_counts_as_failed(monkeypatch):
    real = isa.encode
    monkeypatch.setattr(isa, "encode", lambda ins: real(ins) ^ (1 << 31))
    res = _prefix_run("decode-fuzz", 0)
    assert res["failed"] == res["attempted"] > 0


def test_a_failed_gate_is_reported_and_exits_nonzero(monkeypatch, capsys):
    res = _prefix_run("decode-fuzz", 0)
    res["failed"] = 1
    res["failures"] = ["injected"]
    monkeypatch.setattr(run, "measure_setup", lambda: (0.02, 0.03))
    monkeypatch.setattr(run, "run_worker", lambda *a: res)
    assert run.main(["--workload", "decode-fuzz", "--seconds", "1"]) == 1
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is False and out["failed"] == 1
    assert set(out["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def test_missing_package_exits_2_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "kernel-suite", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out


def _benchmark():
    return json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
