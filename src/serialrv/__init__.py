"""serialrv: cycle-accurate simulation of width-serialized RV32 crypto cores."""

from .golden import ArchState, Memory, StepOutcome, step
from .image import ProgramImage, load_image
from .isa import (Assembler, Ext, FieldRange, IllegalInstruction, Instr,
                  Mnemonic, UnresolvedLabel, decode, disassemble, encode,
                  instr)
from .microarch import CoreConfig, MicroCore, shift_latency
from .system import ExecStats, run

__version__ = "0.1.0"

__all__ = [
    "ArchState", "Assembler", "CoreConfig", "ExecStats", "Ext", "FieldRange",
    "IllegalInstruction", "Instr", "Memory", "MicroCore", "Mnemonic",
    "ProgramImage", "StepOutcome", "UnresolvedLabel", "decode",
    "disassemble", "encode", "instr", "load_image", "run", "shift_latency",
    "step",
]
