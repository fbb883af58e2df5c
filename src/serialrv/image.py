"""Loadable program images: flat binaries and hex-word listings."""

from __future__ import annotations

import os
from typing import NamedTuple, Optional, Union


DEFAULT_BASE = 0x1000  # load address of images, assembled programs and kernels


class MalformedHex(Exception):
    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text

    def __str__(self) -> str:
        return f"line {self.line_no}: not an 8-digit hex word: {self.text!r}"


class EmptyImage(Exception):
    pass


class ProgramImage(NamedTuple):
    """Code+data bytes with a load address and entry point."""

    base: int
    data: bytes
    entry: int

    @property
    def code_size(self) -> int:
        """Bytes of code and data together."""
        return len(self.data)

    def validate(self) -> "ProgramImage":
        if not 0 <= self.base <= self.base + len(self.data) <= 1 << 32:
            raise ValueError(f"image at base {self.base:#x} with {len(self.data)} "
                             "bytes does not fit in the 32-bit address space")
        if self.base % 4 != 0:
            raise ValueError(f"base 0x{self.base:x} not word-aligned")
        if not self.data:
            if self.entry != self.base:
                raise ValueError("empty image must have entry == base")
        elif not self.base <= self.entry < self.base + len(self.data):
            raise ValueError(f"entry {self.entry:#x} outside image")
        return self


def _read_flat(path, base: int) -> bytes:
    """The bytes of the flat binary at `path`, to be loaded at `base`, read
    a chunk at a time: a source longer than the room left above `base` in
    the address space, such as /dev/zero, is rejected one byte past that
    room, never read to its end nor given a buffer of that size up front."""
    if not 0 <= base <= 1 << 32:
        raise ValueError(f"base {base:#x} is outside the 32-bit address space")
    room = (1 << 32) - base
    buf = bytearray()
    with open(path, "rb") as fh:
        while len(buf) <= room:
            chunk = fh.read(min(room + 1 - len(buf), 1 << 20))
            if not chunk:
                return bytes(buf)
            buf += chunk
    raise ValueError(f"a flat binary at base {base:#x} fits in {room} bytes "
                     "of the 32-bit address space; this source is longer")


def load_image(source: Union[str, os.PathLike, bytes], fmt: str = "flat-bin",
               base: int = DEFAULT_BASE, entry: Optional[int] = None) -> ProgramImage:
    """Build a ProgramImage from a file path or raw bytes.

    flat-bin: the bytes are the image. A file is read up to one byte past
    the end of the 32-bit address space, so an endless source such as
    /dev/zero is a load error, not a read that never ends.
    hex-words: one 8-hex-digit word per line, stored little-endian;
    blank lines and `#` comments allowed.
    """
    if isinstance(source, bytes):
        raw = source
    elif fmt == "flat-bin":
        raw = _read_flat(source, base)
    else:
        with open(source, "rb") as fh:
            raw = fh.read()

    if fmt == "flat-bin":
        data = raw
    elif fmt == "hex-words":
        words = []
        for line_no, line in enumerate(raw.decode("ascii", "replace").splitlines(), 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if len(text) != 8 or any(c not in "0123456789abcdefABCDEF" for c in text):
                raise MalformedHex(line_no, text)
            words.append(int(text, 16))
        data = b"".join(w.to_bytes(4, "little") for w in words)
    else:
        raise ValueError(f"unknown image format {fmt!r}")

    if not data:
        raise EmptyImage("image has no bytes")
    return ProgramImage(base=base, data=data,
                        entry=base if entry is None else entry).validate()
