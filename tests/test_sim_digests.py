"""The perfbench workloads' seed-0 simulated results, recomputed here.

Each perfbench workload hashes the simulated results of a fixed prefix of
rounds into its `sim_digest` (perfbench/worker.py), and
perfbench/reference.json records the digest for the default seed. A
change that moves a cycle, an instret, a signature, an output byte or a
decoded field moves the digest of a workload that covers it.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


class _BareMeter:
    """Runs each cell as perfbench's Meter does, with no reference-loop
    samples and no timing."""

    def cell(self, width, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a failed cell, as in perfbench
            return exc


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", sorted(REFERENCE["sim_digest"]))
def test_default_seed_sim_digest(workloads, name):
    wl = workloads.WORKLOADS[name](REFERENCE["default_seed"])
    meter = _BareMeter()
    digest = hashlib.sha256()
    for _ in range(wl.prefix_rounds):
        result = wl.run_round(meter)
        assert result.failed == 0, result.failures
        for rec in result.records:
            digest.update(rec.encode() + b"\n")
    assert digest.hexdigest()[:16] == REFERENCE["sim_digest"][name]
