"""Per-layer tracing of serialrv from outside the package.

`Tracer.installed()` replaces the module and class attributes that the
layers call on each other with timing wrappers, and puts the originals
back on exit. Two kinds of wrapper exist:

* span ops run once per cell or per build (torture-program generation,
  image loading, `system.run`, the bench builders). Each call is kept as a
  span with its parent's id.
* per-instruction ops (`golden.step`, `MicroCore.step`, `isa.encode`,
  `isa.decode`, `isa.decode_cached`) run millions of times, so they only
  add to a (op, width) table of calls and seconds, which keeps memory
  bounded.

Both kinds keep a stack of open calls. A call's self time is its duration
minus the time of the traced calls made inside it. The wrappers' own
bookkeeping after each call is booked to the tracer, not to the caller.
So the self times of all ops, the bookkeeping and an unattributed
remainder (the harness between rounds) sum to the traced wall time.
"""

from __future__ import annotations

import contextlib
import time

from serialrv import bench, cosim, golden, isa, microarch, system

# What is wrapped: (op name, owner, attribute). Owners are looked up by the
# layers at call time, so replacing the attribute reaches every caller.
SPAN_TARGETS = (
    ("cosim.cosim_run", cosim, "cosim_run"),
    ("cosim.generate", cosim, "generate"),
    ("cosim.signature", cosim, "signature"),
    ("golden.from_image", golden.ArchState, "from_image"),
    ("system.run", system, "run"),
    ("bench.build", bench, "build_aes128"),
    ("bench.build", bench, "build_sha256"),
    ("bench.build", bench, "build_prince_sbox"),
    ("bench.build", bench, "build_alumix"),
    ("bench.build", bench, "build_shiftstorm"),
    ("bench.run_kernel", bench, "run_kernel"),
)
PER_INSTRUCTION_TARGETS = (
    ("golden.step", golden, "step"),
    ("microarch.step", microarch.MicroCore, "step"),
    ("isa.encode", isa, "encode"),
    ("isa.decode", isa, "decode"),
    ("isa.decode_cached", isa, "decode_cached"),
)

# Spans the benchmark itself opens around each round, each sample of the
# reference loop and each cell.
HARNESS_OPS = ("harness.round", "harness.reference", "harness.cell")
OPS = HARNESS_OPS + tuple(dict.fromkeys(
    op for op, _, _ in SPAN_TARGETS + PER_INSTRUCTION_TARGETS))

WIDTHS = (1, 2, 4, 8, 16, 32)
# Latency classes of microarch.CLASS_OF, fixed here so that the metric
# names stay the same across versions of the package.
SIM_CLASSES = ("aes", "alu_chunked", "branch", "clmul", "fence_nop", "jump",
               "load", "reorder_1cycle", "rotate", "sha", "shift", "store",
               "xperm")
# Halts after which the halting instruction still counts as retired, as in
# system.run.
_RETIRING_HALTS = (golden.EBREAK, golden.ECALL)

# agg record fields
_CALLS, _INCL, _SELF, _RAISED, _UNDER_CACHED = range(5)


class NullTracer:
    """Stands in for Tracer in untraced runs; wraps nothing."""

    width = 0
    _null = contextlib.nullcontext()

    def span(self, op, width=None):
        return self._null

    @contextlib.contextmanager
    def installed(self):
        yield self


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.width = 0
        self.agg: dict = {}      # (op, width) -> [calls, incl_s, self_s, raised, under_cached]
        self.spans: list = []    # (id, parent id, op, width, start_s, end_s)
        self.sim = {c: [0, 0] for c in SIM_CLASSES}  # class -> [instret, cycles]
        self.sim_cycles = 0
        self._names = ["root"]   # ops of the open calls
        self._child = [0.0]      # traced time spent inside each open call
        self._span_ids = [None]
        self._origin = 0.0
        self.wall_s = 0.0
        self.bookkeeping_s = 0.0

    # -- installing -------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        patched = []
        try:
            for op, owner, attr in SPAN_TARGETS:
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap_method(original, self._span_wrapper(op)))
            for op, owner, attr in PER_INSTRUCTION_TARGETS:
                original = owner.__dict__[attr]
                patched.append((owner, attr, original))
                post = self._count_sim if op == "microarch.step" else None
                setattr(owner, attr, self._wrap_method(original, self._agg_wrapper(op, post)))
            self._origin = self.clock()
            yield self
        finally:
            self.wall_s = self.clock() - self._origin
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    @staticmethod
    def _wrap_method(original, make):
        if isinstance(original, classmethod):
            return classmethod(make(original.__func__))
        return make(original)

    # -- recording ----------------------------------------------------------------

    def _record(self, op, dur, own, raised, parent):
        key = (op, self.width)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        rec[_CALLS] += 1
        rec[_INCL] += dur
        rec[_SELF] += own
        if raised:
            rec[_RAISED] += 1
        if parent == "isa.decode_cached":
            rec[_UNDER_CACHED] += 1

    @contextlib.contextmanager
    def span(self, op, width=None):
        """Time a block as one span of `op`; `width` labels it and its children."""
        t0 = self.clock()
        prev_width = self.width
        if width is not None:
            self.width = width
        names, child, span_ids = self._names, self._child, self._span_ids
        parent = names[-1]
        sid = len(self.spans)
        self.spans.append(None)
        parent_sid = span_ids[-1]
        span_ids.append(sid)
        names.append(op)
        child.append(0.0)
        raised = True
        try:
            yield
            raised = False
        finally:
            t1 = self.clock()
            names.pop()
            span_ids.pop()
            self._record(op, t1 - t0, t1 - t0 - child.pop(), raised, parent)
            self.spans[sid] = (sid, parent_sid, op, self.width,
                               t0 - self._origin, t1 - self._origin)
            self.width = prev_width
            self._leave(t0, t1)

    def _leave(self, t0, t1):
        # the caller's traced time includes this call's bookkeeping, which
        # is booked to the tracer rather than to any layer
        t2 = self.clock()
        self._child[-1] += t2 - t0
        self.bookkeeping_s += t2 - t1

    def _span_wrapper(self, op):
        def make(fn):
            def traced(*args, **kwargs):
                with self.span(op):
                    return fn(*args, **kwargs)
            return traced
        return make

    def _agg_wrapper(self, op, post):
        # names bound once: these wrappers run once per simulated instruction
        # or decoded word
        clock, names, child, record = self.clock, self._names, self._child, self._record
        leave = self._leave

        def make(fn):
            def traced(*args, **kwargs):
                t0 = clock()
                parent = names[-1]
                names.append(op)
                child.append(0.0)
                raised = True
                try:
                    result = fn(*args, **kwargs)
                    raised = False
                finally:
                    t1 = clock()
                    names.pop()
                    record(op, t1 - t0, t1 - t0 - child.pop(), raised, parent)
                    if post is not None and not raised:
                        post(args[0], result)
                    leave(t0, t1)
                return result
            return traced
        return make

    def _count_sim(self, core, result):
        """Simulated counts from MicroCore.step, by the rules of system.run."""
        cycles, outcome, ins = result
        if ins is not None and (not outcome.halted or outcome.reason in _RETIRING_HALTS):
            entry = self.sim[microarch.CLASS_OF[ins.mnemonic]]
            entry[0] += 1
            entry[1] += cycles
        if outcome.halted:
            self.sim_cycles += core.cycle

    def sim_snapshot(self) -> dict:
        """Exact simulated counts so far, as per-layer metric values."""
        out = {"microarch.sim_cycles": self.sim_cycles,
               "microarch.sim_instret": sum(n for n, _ in self.sim.values())}
        for c in SIM_CLASSES:
            out[f"microarch.sim_cycles.{c}"] = self.sim[c][1]
        return out

    # -- reporting -------------------------------------------------------------------

    def totals(self, op, width=None) -> list:
        """[calls, incl_s, self_s, raised, under_cached] of op, over one width or all."""
        tot = [0, 0.0, 0.0, 0, 0]
        for (o, w), rec in self.agg.items():
            if o == op and (width is None or w == width):
                for i, v in enumerate(rec):
                    tot[i] += v
        return tot

    def layer_metrics(self, sim_prefix: dict) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        `sim_prefix` holds the simulated counts of the workload's fixed
        prefix (see sim_snapshot); all other numbers cover the whole run.
        """
        m = {}
        unattributed = self.wall_s
        for op in OPS:
            calls, incl, own, _, _ = self.totals(op)
            if op not in HARNESS_OPS:
                m[f"{op}.s"] = (incl, "s")
                m[f"{op}.calls"] = (calls, "count")
            m[f"{op}.self_s"] = (own, "s")
            unattributed -= own
        m["trace.wall_s"] = (self.wall_s, "s")
        m["trace.bookkeeping_s"] = (self.bookkeeping_s, "s")
        m["trace.unattributed_s"] = (unattributed - self.bookkeeping_s, "s")

        calls, incl, *_ = self.totals("golden.step")
        m["golden.step.ips"] = (calls / incl if incl else 0.0, "1/s")
        for w in WIDTHS:
            calls, incl, *_ = self.totals("microarch.step", w)
            m[f"microarch.step.ips.w{w}"] = (calls / incl if incl else 0.0, "1/s")
        _, incl, *_ = self.totals("microarch.step")
        m["microarch.host_ns_per_sim_cycle"] = (
            incl * 1e9 / self.sim_cycles if self.sim_cycles else 0.0, "ns")

        calls, incl, _, illegal, misses = self.totals("isa.decode")
        m["isa.decode.ns_per_word"] = (incl * 1e9 / calls if calls else 0.0, "ns")
        m["isa.decode.legal_ratio"] = ((calls - illegal) / calls if calls else 0.0, "ratio")
        cached_calls = self.totals("isa.decode_cached")[_CALLS]
        m["isa.decode_cached.hit_ratio"] = (
            1 - misses / cached_calls if cached_calls else 0.0, "ratio")

        for name, value in sim_prefix.items():
            m[name] = (value, "count")
        return m

    def dump(self) -> dict:
        """Spans and the (op, width) table, for writing out after the run."""
        return {
            "span_fields": ["id", "parent", "op", "width", "start_s", "end_s"],
            "spans": self.spans,
            "agg_fields": ["op", "width", "calls", "incl_s", "self_s",
                           "raised", "under_decode_cached"],
            "agg": [[op, w, *rec] for (op, w), rec in sorted(self.agg.items())],
        }
