"""Function-entry recorder for ``tests/audit_traffic.py``.

The audit puts this directory on ``PYTHONPATH`` of every traffic
subprocess, so the interpreter imports it at start-up and the program
under audit (``bench/worker.py`` included) runs unedited.  It records
the first entry of every function whose code lives under
``REPRO_TRAFFIC_SRC`` and, at exit, writes one ``path::qualname`` line
per function to a fresh file in ``REPRO_TRAFFIC_OUT``.  Without those
two variables it does nothing.

``atexit`` does not run in a process that leaves through ``os._exit``
(multiprocessing pool workers), which is why the audit runs every script
``--serial`` / ``--processes 0``.
"""

import atexit
import os
import sys
import threading

_SRC = os.environ.get("REPRO_TRAFFIC_SRC")
_OUT = os.environ.get("REPRO_TRAFFIC_OUT")


def _install() -> None:
    prefix = os.path.join(os.path.abspath(_SRC), "")
    cut = len(prefix)
    # Every code object met, ours or not — the fast exit.  Keyed by id():
    # code objects compare by value without their file name, so two
    # one-line properties on the same line of two modules are "equal".
    # Holding the object keeps its id from being reused.
    seen = {}
    entered = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        filename = code.co_filename
        if filename.startswith(prefix):
            entered.add(f"{filename[cut:]}::{code.co_qualname}")

    def dump() -> None:
        sys.setprofile(None)
        os.makedirs(_OUT, exist_ok=True)
        with open(os.path.join(_OUT, f"entered.{os.getpid()}.txt"), "w") as fh:
            fh.write("\n".join(sorted(entered)) + "\n")

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if _SRC and _OUT:
    _install()
