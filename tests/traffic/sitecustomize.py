"""Function-entry and option-value recorder for ``tests/audit_traffic.py``.

The audit puts this directory on ``PYTHONPATH`` of every traffic
subprocess, so the interpreter imports it at start-up and the program
under audit (``bench/worker.py`` included) runs unedited.  Without
``REPRO_TRAFFIC_SRC`` and ``REPRO_TRAFFIC_OUT`` it does nothing.  With
them it records, for every function whose code lives under
``REPRO_TRAFFIC_SRC``,

* that it was entered, and
* the distinct values each of its defaulted parameters ran with —
  likewise every defaulted field of a config-like dataclass defined there
  (a class named ``*Config`` / ``*Params`` / ``*Spec``), read at its
  generated ``__init__``, and
  every chaos action param, read where ``chaos/scenario.py::param_of``
  returns it to the executor.

A value is keyed by its ``repr`` when it is a scalar, an enum member,
``None`` or a tuple of these; any other object makes the parameter a
dependency, not an option.  An option stops being watched once it has
two values or turns out to be a dependency, and a function stops being
watched once none of its options is left open, so a hot call pays for
the check only while the answer is still open.

At exit it writes ``entered.<pid>.txt`` (one ``path::qualname`` line per
function) and ``options.<pid>.json`` (``{option: [key, ...] or null}``,
``null`` for a dependency; option names are ``path::qualname(param)``,
``path::Class.field`` and ``chaos/scenario.py::ACTIONS.kind(param)``) to
``REPRO_TRAFFIC_OUT``.

``atexit`` does not run in a process that leaves through ``os._exit``
(multiprocessing pool workers), which is why the audit runs every script
``--serial`` / ``--processes 0``.
"""

import ast
import atexit
import dataclasses
import enum
import inspect
import json
import os
import re
import sys
import threading

_SRC = os.environ.get("REPRO_TRAFFIC_SRC")
_OUT = os.environ.get("REPRO_TRAFFIC_OUT")

_CONFIG_CLASS = re.compile(r"(Config|Params|Spec)$")
_SCALARS = (bool, int, float, complex, str, bytes)
_RESUMABLE = (inspect.CO_GENERATOR | inspect.CO_COROUTINE
              | inspect.CO_ASYNC_GENERATOR)
_UNSET = object()


def _key(value):
    """``repr`` of an option value, or None for a dependency."""
    if value is None or isinstance(value, (_SCALARS, enum.Enum)):
        return repr(value)
    if type(value) is tuple and all(_key(item) is not None for item in value):
        return repr(value)
    return None


def _defaulted_params(path):
    """``(first line, name) -> [parameter with a default, ...]`` of every
    ``def`` in the file; the first line is the first decorator's, as in
    ``code.co_firstlineno``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    table = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        names = [arg.arg for arg in positional[len(positional)
                                                - len(args.defaults):]]
        names += [arg.arg for arg, default in zip(args.kwonlyargs,
                                                  args.kw_defaults)
                  if default is not None]
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        table[(first, node.name)] = names
    return table


def _install() -> None:
    prefix = os.path.join(os.path.abspath(_SRC), "")
    cut = len(prefix)
    # Every code object met, ours or not, keyed by id() -> the option
    # slots still open on it (an empty list is the fast exit).  Code
    # objects compare by value without their file name, so two one-line
    # properties on the same line of two modules are "equal"; holding the
    # object keeps its id from being reused.
    watch = {}
    held = []
    entered = set()
    start = {}            # id(code) -> f_lasti of a generator's first call
    options = {}          # option -> set of keys, or None (dependency)
    files = {}
    param_of = [None]     # the code object of chaos/scenario.py::param_of

    def slots_for(frame, code):
        filename = code.co_filename
        if filename.startswith(prefix):
            rel = filename[cut:]
            entered.add(f"{rel}::{code.co_qualname}")
            if rel == "chaos/scenario.py" and code.co_name == "param_of":
                param_of[0] = code
            if rel not in files:
                files[rel] = _defaulted_params(filename)
            names = files[rel].get((code.co_firstlineno, code.co_name), ())
            return [[f"{rel}::{code.co_qualname}({name})", name, _UNSET, None]
                    for name in names]
        if filename == "<string>" and code.co_name == "__init__":
            self = frame.f_locals.get(code.co_varnames[0])
            cls = type(self)
            module = sys.modules.get(cls.__module__)
            path = getattr(module, "__file__", None) or ""
            fields = getattr(cls, "__dataclass_fields__", None)
            if (fields and path.startswith(prefix)
                    and _CONFIG_CLASS.search(cls.__name__)):
                rel = path[cut:]
                return [[f"{rel}::{cls.__qualname__}.{name}", name, _UNSET,
                         None]
                        for name, field in fields.items()
                        if field.init and (
                            field.default is not dataclasses.MISSING
                            or field.default_factory is not dataclasses.MISSING)]
        return []

    def observe(frame, slots):
        local = frame.f_locals
        for slot in list(slots):
            option, name, first, first_key = slot
            value = local[name]
            if value is first:
                continue
            key = _key(value)
            if key is None:
                options[option] = None
            elif first is _UNSET:
                slot[2], slot[3] = value, key
                options[option] = {key}
                continue
            elif key == first_key:
                continue
            else:
                options[option].add(key)
            slots.remove(slot)

    def resolved(frame, value):
        """``param_of`` returns ``value`` for its action's param."""
        local = frame.f_locals
        option = (f"chaos/scenario.py::ACTIONS.{local['act'].kind}"
                  f"({local['name']})")
        keys = options.setdefault(option, set())
        key = _key(value)
        if key is None:
            options[option] = None
        elif keys is not None:
            keys.add(key)

    def profile(frame, event, arg):
        if event != "call":
            if event == "return" and frame.f_code is param_of[0]:
                resolved(frame, arg)
            return
        code = frame.f_code
        slots = watch.get(id(code))
        if slots is None:
            held.append(code)
            slots = watch[id(code)] = slots_for(frame, code)
            if slots and code.co_flags & _RESUMABLE:
                start[id(code)] = frame.f_lasti
        # A generator or coroutine gets a "call" at every resume; its
        # parameters are read at the first only.
        if slots and start.get(id(code), frame.f_lasti) == frame.f_lasti:
            observe(frame, slots)

    def dump() -> None:
        sys.setprofile(None)
        os.makedirs(_OUT, exist_ok=True)
        pid = os.getpid()
        with open(os.path.join(_OUT, f"entered.{pid}.txt"), "w") as fh:
            fh.write("\n".join(sorted(entered)) + "\n")
        with open(os.path.join(_OUT, f"options.{pid}.json"), "w") as fh:
            json.dump({option: None if keys is None else sorted(keys)
                       for option, keys in options.items()}, fh,
                      sort_keys=True, indent=0)

    atexit.register(dump)
    threading.setprofile(profile)
    sys.setprofile(profile)


if _SRC and _OUT:
    _install()
