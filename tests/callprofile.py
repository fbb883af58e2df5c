"""Record the calls that one function call makes, for the tests that pin
what a step calls."""

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
