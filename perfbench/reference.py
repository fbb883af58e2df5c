"""A fixed reference loop that measures how fast the host runs Python now.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU VM the
same pure-Python loop was measured taking 30% to 75% longer for seconds
at a time while other tenants were busy. Host times are therefore taken
together with samples of this loop, and the reported timings are scaled
to a host on which the loop takes REF_S. The host's speed changes within
tens of milliseconds, so only the two nearest samples are used:

    scaled time = host time * REF_S / (mean of the loop samples just
                                       before and just after it)

The loop does the interpreter work serialrv spends its time on (method
calls, attribute and dict access, small tuples, integer masking). It runs
with the garbage collector off, so the objects that serialrv keeps alive
do not change its time. It does not import serialrv, so a change to the
package does not change the yardstick.
"""

from __future__ import annotations

import gc
import time

# Seconds the loop takes on the host the benchmark was defined on
# (Python 3.11.7, 2 vCPUs), in its fast periods.
REF_S = 0.0005


class _Obj:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mix(self, x):
        return (self.a ^ x) & 0xFFFF


_OBJS = [_Obj(i, 3 * i) for i in range(64)]


def _loop() -> int:
    d = {}
    acc = 0
    objs = _OBJS
    for i in range(1500):
        o = objs[i & 63]
        k = (i * 7) & 255
        d[k] = d.get(k, 0) + o.mix(i)
        t = (o.a, k, i)
        acc += t[1] if t[2] & 1 else len(t)
    return acc


def sample() -> float:
    """Host seconds of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale_factors(samples) -> list:
    """One factor per interval between consecutive samples: REF_S over the
    mean of the samples at its two ends."""
    return [2 * REF_S / (a + b) for a, b in zip(samples, samples[1:])]
