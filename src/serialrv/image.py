"""Loadable program images: flat binaries and hex-word listings."""

from __future__ import annotations

import itertools
import os
from typing import NamedTuple, Optional, Union


DEFAULT_BASE = 0x1000  # load address of images, assembled programs and kernels
_QUOTED = 16  # the characters of a bad line that MalformedHex prints


class MalformedHex(Exception):
    def __init__(self, line_no: int, text: str):
        self.line_no = line_no
        self.text = text

    def __str__(self) -> str:
        text = self.text if len(self.text) <= _QUOTED else self.text[:_QUOTED] + "..."
        return f"line {self.line_no}: not an 8-digit hex word: {text!r}"


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


_CHUNK = 1 << 20  # the most that one read of an image file asks for
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e"  # the ASCII ones of str.splitlines


def _room_above(base: int) -> int:
    """The bytes of the 32-bit address space from `base` to its end."""
    if not 0 <= base <= 1 << 32:
        raise ValueError(f"base {base:#x} is outside the 32-bit address space")
    return (1 << 32) - base


def _read_flat(path, base: int) -> bytes:
    """The bytes of the flat binary at `path`, to be loaded at `base`, read
    a chunk at a time: a source longer than the room left above `base` in
    the address space, such as /dev/zero, is rejected one byte past that
    room, never read to its end nor given a buffer of that size up front."""
    room = _room_above(base)
    buf = bytearray()
    with open(path, "rb") as fh:
        while len(buf) <= room:
            chunk = fh.read(min(room + 1 - len(buf), _CHUNK))
            if not chunk:
                return bytes(buf)
            buf += chunk
    raise ValueError(f"a flat binary at base {base:#x} fits in {room} bytes "
                     "of the 32-bit address space; this source is longer")


def _file_chunks(path):
    with open(path, "rb") as fh:
        yield from iter(lambda: fh.read(_CHUNK), b"")


def _compact_held(held: str) -> str:
    """A held line without the text that cannot change its verdict: what
    follows its `#`, all of it if it is only whitespace, or its trailing
    whitespace past the first `_QUOTED` characters of that run (a line
    with digits before the run holds at most 8 of them, so the quoted
    text does not change). Its line break, if it has one, stays, and so
    does every line number."""
    body = held.rstrip(_LINE_BREAKS)
    cut = body.find("#")
    if cut >= 0:
        return body[:cut].strip() + "#" + held[len(body):]
    if body.isspace():
        return held[len(body):]
    keep = len(body.rstrip()) + _QUOTED
    if keep < len(body):
        return body[:keep] + held[len(body):]
    return held


def _read_hex_words(chunks, base: int) -> bytes:
    """The words of a hex-words listing given as byte chunks, stored
    little-endian for loading at `base`. A chunk's last line is held until
    the next chunk shows where it ends, but a line is rejected as soon as
    its text before any `#` holds a non-hex character or more than 8
    digits, and a word as soon as it passes the room above `base`: an
    endless source such as /dev/zero is rejected after one chunk. A held
    line keeps no comment text, no line of blanks and no more than
    `_QUOTED` trailing blanks (`_compact_held`), so an endless comment or
    blank run is read in bounded memory."""
    room = _room_above(base)
    data = bytearray()
    line_no, held = 0, ""
    for chunk in itertools.chain(chunks, (None,)):  # None: the source has ended
        pending = held + (chunk or b"").decode("ascii", "replace")
        *lines, held = pending.splitlines(keepends=True) or [""]
        if chunk is None:
            lines.append(held)
        for line in lines:
            line_no += 1
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if len(text) != 8 or not _HEX_DIGITS.issuperset(text):
                raise MalformedHex(line_no, text)
            if len(data) + 4 > room:
                raise ValueError(f"a hex-words image at base {base:#x} fits in "
                                 f"{room // 4} words of the 32-bit address "
                                 "space; this source is longer")
            data += int(text, 16).to_bytes(4, "little")
        held = _compact_held(held)
        head = held.split("#", 1)[0].strip()  # what the held line holds so far
        if len(head) > 8 or not _HEX_DIGITS.issuperset(head):
            raise MalformedHex(line_no + 1, head)
    return bytes(data)


def load_image(source: Union[str, os.PathLike, bytes], fmt: str = "flat-bin",
               base: int = DEFAULT_BASE, entry: Optional[int] = None) -> ProgramImage:
    """Build a ProgramImage from a file path or raw bytes.

    flat-bin: the bytes are the image. A file is read up to one byte past
    the end of the 32-bit address space, so an endless source such as
    /dev/zero is a load error, not a read that never ends.
    hex-words: one 8-hex-digit word per line, stored little-endian;
    blank lines and `#` comments allowed. A file is read a chunk at a
    time, and a line that cannot be a word line, or a word past the end of
    the address space, is a load error as soon as it is read.
    """
    if fmt == "hex-words":
        chunks = (source,) if isinstance(source, bytes) else _file_chunks(source)
        data = _read_hex_words(chunks, base)
    elif fmt == "flat-bin":
        data = source if isinstance(source, bytes) else _read_flat(source, base)
    else:
        raise ValueError(f"unknown image format {fmt!r}")

    if not data:
        raise EmptyImage("image has no bytes")
    return ProgramImage(base=base, data=data,
                        entry=base if entry is None else entry).validate()
