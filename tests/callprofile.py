"""Record the calls that one function call makes, and the frames an
exception passes through, for the tests that pin what a step does."""

import gc
import sys


def calls_of(fn, *args):
    """(code objects of the Python functions, names of the builtins) that
    `fn(*args)` calls, `fn`'s own call left out.

    The cyclic garbage collector is off while `fn` runs, so that no
    finalizer of garbage that earlier code left joins the record; its
    previous state is restored afterwards."""
    codes, builtins = [], []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)
        elif event == "c_call":
            builtins.append(arg.__name__)

    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    assert codes[0] is fn.__code__ and builtins[-1] == "setprofile"
    return codes[1:], builtins[:-1]


def exceptions_of(fn, *args):
    """(what `fn(*args)` returns, the code objects of the Python frames
    that an exception reached while it ran, one per frame and event, in
    order).

    An exception reaches the frame that raises it and each frame it
    propagates into, up to the one that catches it, and each of these
    gets an "exception" trace event. The cyclic garbage collector is off
    while `fn` runs, as in `calls_of`; the previous tracer and collector
    state are restored afterwards."""
    codes = []

    def local(frame, event, arg):
        if event == "exception":
            codes.append(frame.f_code)
        return local

    enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local)  # every new frame: `local`
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
        if enabled:
            gc.enable()
    return result, codes
