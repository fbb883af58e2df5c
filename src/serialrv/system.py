"""Program loading, the run loop, halt conventions and statistics."""

from __future__ import annotations

from typing import NamedTuple, Optional, TextIO

from . import golden
from .golden import ArchState
from .image import ProgramImage
from .microarch import CLASS_OF, CoreConfig, MicroCore

DEFAULT_MAX_CYCLES = 10_000_000


class ExecStats(NamedTuple):
    """What one `run` measured, built once when the run has ended."""

    cycles: int
    instret: int
    halt: str
    exit_code: Optional[int]
    code_size: int
    startup_cycles: int
    width: int
    extensions: tuple
    classes: dict  # class -> [count, cycles]
    console: bytes

    @property
    def cpi(self) -> float:
        return self.cycles / self.instret if self.instret else 0.0

    def to_json_dict(self) -> dict:
        return {
            "cycles": self.cycles,
            "instret": self.instret,
            "cpi": round(self.cpi, 4),
            "halt": self.halt,
            "code_size": self.code_size,
            "width": self.width,
            "extensions": list(self.extensions),
            "classes": {k: {"count": v[0], "cycles": v[1]}
                        for k, v in sorted(self.classes.items())},
        }


def run(image: ProgramImage, config: CoreConfig,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        trace: Optional[TextIO] = None,
        state: Optional[ArchState] = None) -> ExecStats:
    """Execute an image on the cycle-accurate core until it halts.

    Halting: ebreak, plain ecall, any trap, a store to the exit MMIO word,
    or exhausting the cycle budget. An instruction that would overrun the
    budget does not retire and changes nothing, so the state is that of the
    last retired instruction. Pass a pre-built `state` to inspect memory
    after the run.

    The core counts each mnemonic's retirements and charged cycles where it
    charges them (`MicroCore.retired`); `instret` and the per-class counts
    are summed from those once, through CLASS_OF, after the run.
    """
    if max_cycles <= 0:
        raise ValueError("max_cycles must be > 0")
    if state is None:
        state = ArchState.from_image(image)
    core = MicroCore(config, state)
    mem = state.mem
    exit_code = None

    step = core.step
    while True:
        pc_before = state.pc
        cycles, outcome, ins = step(max_cycles)
        if trace is not None and cycles:  # cycles go to a retired instruction only
            trace.write(f"{core.cycle - cycles},0x{pc_before:08x},"
                        f"0x{ins.raw:08x},{ins.mnemonic.value},{cycles}\n")
        if outcome.halted:
            halt = outcome.reason
            break
        if mem.exit_code is not None:
            halt, exit_code = golden.ECALL, mem.exit_code
            break

    instret, classes = 0, {}
    for m, (count, cycles) in core.retired().items():
        instret += count
        entry = classes.setdefault(CLASS_OF[m], [0, 0])
        entry[0] += count
        entry[1] += cycles
    if halt == golden.ECALL and exit_code is None:
        exit_code = 0
    return ExecStats(cycles=core.cycle, instret=instret, halt=halt,
                     exit_code=exit_code, code_size=image.code_size,
                     startup_cycles=core.startup_cycles,
                     width=config.serial_width,
                     extensions=tuple(sorted(e.value for e in config.extensions)),
                     classes=classes, console=bytes(mem.console))


def stats_to_json(stats: ExecStats) -> str:
    import json  # here, so that importing serialrv does not load json

    return json.dumps(stats.to_json_dict(), indent=2, sort_keys=True)
