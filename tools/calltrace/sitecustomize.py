"""Record which functions under ``src/repro`` a Python process enters.

Python imports ``sitecustomize`` at start-up from ``sys.path``, so putting
this directory on ``PYTHONPATH`` traces every process of a run: pytest,
``benchmarks/e2e/run.py`` after its ``os.execve``, the subprocesses it
starts.  Nothing happens unless ``CALLTRACE_DIR`` names a directory.

Each process appends ``relpath<TAB>co_firstlineno<TAB>co_qualname`` lines
to ``$CALLTRACE_DIR/$CALLTRACE_RUN.<pid>.tsv``, one line per code object
the first time it is called.  ``relpath`` is the part of the file's real
path after ``src/repro/``; code elsewhere is ignored.  The file is
line-buffered, so ``os.execve`` and ``os._exit`` lose nothing.

The tracer sees ``call`` events only (it returns None, so no line
events), through ``sys.settrace`` and ``threading.settrace``.
"""

from __future__ import annotations

import os
import sys
import threading

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def _install(directory: str) -> None:
    run = os.environ.get("CALLTRACE_RUN", "run")
    seen: set = set()
    places: dict[str, str | None] = {}
    state = {"pid": None, "out": None}

    def where(filename: str) -> str | None:
        if filename not in places:
            path = os.path.realpath(filename)
            cut = path.rfind(_MARKER)
            places[filename] = None if cut < 0 else path[cut + len(_MARKER):]
        return places[filename]

    def output():
        pid = os.getpid()
        if state["pid"] != pid:     # first call, or a forked child
            state["pid"] = pid
            state["out"] = open(os.path.join(directory, f"{run}.{pid}.tsv"),
                                "a", buffering=1, encoding="utf-8")
        return state["out"]

    def tracer(frame, event, arg):
        code = frame.f_code
        if code in seen:
            return None
        seen.add(code)
        relpath = where(code.co_filename)
        if relpath is not None:
            qualname = getattr(code, "co_qualname", code.co_name)
            output().write(f"{relpath}\t{code.co_firstlineno}\t{qualname}\n")
        return None

    sys.settrace(tracer)
    threading.settrace(tracer)


_DIRECTORY = os.environ.get("CALLTRACE_DIR")
if _DIRECTORY:
    os.makedirs(_DIRECTORY, exist_ok=True)
    _install(_DIRECTORY)
