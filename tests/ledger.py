"""The one counting rule of the call-budget tests.

``tests/test_event_budget.py``, ``tests/test_solve_budget.py`` and
``tests/test_build_budget.py`` pin what a code path costs by the Python
frames it enters rather than by host time.  They count the same way:
every ``call`` event of code under ``src/repro``, keyed by ``co_name``
(``co_qualname`` is missing on Python 3.10).  Builtins are not counted,
nor is a dataclass ``__init__`` (compiled from ``<string>``).  Frames named
``<...>`` (lambdas, comprehensions, generator expressions) are skipped:
whether a comprehension gets a frame of its own depends on the
interpreter (3.12 inlines them).  A check that must see every frame, as
the build file's bulk-pass check does, asks for them.

The events a run executes are the frames entered directly from
``Engine.run``'s own frame (``count_dispatches``), keyed by the qualified
name of the callback that frame is running.
"""

import sys
from collections import Counter
from pathlib import Path

import repro
from repro.sim.engine import Engine

SRC = str(Path(repro.__file__).parent)
RUN = Engine.run.__code__


def count_calls(run, every_frame=False, extra=None):
    """``(calls, result)``: the result of ``run()`` and the ``co_name``
    Counter of the frames under ``src/repro`` it entered (``<...>`` frames
    only with ``every_frame``).  ``extra`` is ``(code, name)``: calls of
    that code object, wherever it was compiled, count under ``name``."""
    calls = Counter()
    extra_code, extra_name = extra or (None, None)

    def profile(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        if code is extra_code:
            calls[extra_name] += 1
        elif code.co_filename.startswith(SRC) and (
                every_frame or not code.co_name.startswith("<")):
            calls[code.co_name] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return calls, result


def count_dispatches(run):
    """``(events, result)``: the result of ``run()`` and the Counter of
    the events the engine executed in it, by the ``__qualname__`` of each
    event's callback (read from ``Engine.run``'s frame, which works on
    3.10 too)."""
    events = Counter()

    def profile(frame, event, _arg):
        caller = frame.f_back
        if event == "call" and caller is not None and caller.f_code is RUN:
            callback = caller.f_locals["callback"]
            events[getattr(callback, "__qualname__",
                           type(callback).__qualname__)] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return events, result
