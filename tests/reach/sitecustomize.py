"""Record every ``src/repro`` def and line a process runs (reach).

Python imports this module at start-up when ``tests/reach`` is on
``PYTHONPATH``; it does nothing unless ``REPRO_REACH_LOG`` names a log
file and ``REPRO_REACH_ROOT`` the package directory.  A ``sys.settrace``
hook writes ``path:first-line:name`` the first time this process enters
a package code object, and its local tracer writes ``path:line`` the
first time it runs each of that object's :func:`executable_lines`; once
all of them are seen the code object is traced no more.  Each record is
one ``os.write`` on an ``O_APPEND`` descriptor.  Nothing is buffered, so
a pool worker that ends in ``os._exit`` or a daemon stopped by a signal
loses no line.  A forked child inherits the hook, the descriptor and
what was already reported; a child started with ``exec`` imports this
module again.  Signal handlers are installed through :func:`_signal`, so
one that runs inside the hook, untraced, is still credited with its
lines and, if it raises, does not end the log.
"""

import dis
import os
import signal
import sys
import threading

_LOG = os.environ.get("REPRO_REACH_LOG")
_ROOT = os.environ.get("REPRO_REACH_ROOT")

#: Opcodes that run nothing of a line: entry, no-op, inline cache slot.
_SILENT = frozenset(dis.opmap[name] for name in ("RESUME", "NOP", "CACHE"))


def executable_lines(code):
    """The lines holding one of ``code``'s own instructions other than
    ``RESUME`` and ``NOP`` (its nested code objects not included)."""
    ops = code.co_code
    return {
        line
        for start, end, line in code.co_lines()
        if line is not None and any(ops[i] not in _SILENT for i in range(start, end, 2))
    }


# Imported as ``tests.reach.sitecustomize`` (by the checker), it records nothing.
if _LOG and _ROOT and __name__ == "sitecustomize":
    _root = os.path.join(os.path.abspath(_ROOT), "")
    _fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    #: Package code object -> (its path under the root, its lines not yet seen).
    _pending = {}
    #: Code objects with nothing left to report: outside the package, or all seen.
    _done = set()

    def _write(record):
        os.write(_fd, f"{record}\n".encode())

    def _register(code):
        """``(path, lines not yet seen)`` of a package code object, its def
        written; ``None`` outside the package."""
        path = os.path.abspath(code.co_filename)
        if not path.startswith(_root):
            _done.add(code)
            return None
        path = path[len(_root) :]
        _write(f"{path}:{code.co_firstlineno}:{code.co_name}")
        # Only once written: a signal handler raising above leaves it to retry.
        _pending[code] = entry = (path, executable_lines(code))
        return entry

    def _on_line(frame, event, arg):
        if event == "line":
            code = frame.f_code
            if code in _done:
                frame.f_trace = None
                return None
            path, lines = _pending[code]
            if frame.f_lineno in lines:
                _write(f"{path}:{frame.f_lineno}")
                lines.discard(frame.f_lineno)
                if not lines:
                    _done.add(code)
                    frame.f_trace = None
                    return None
        return _on_line

    def _on_call(frame, event, arg):
        code = frame.f_code
        if code in _done or (code not in _pending and _register(code) is None):
            return None
        return _on_line

    def _resume(frame, event, arg):
        sys.setprofile(None)
        sys.settrace(_on_call)

    _HOOKS = {_on_call.__code__, _on_line.__code__, _resume.__code__}

    def _untraced(frame):
        """Whether code run from ``frame`` goes untraced: inside the hook,
        or with the hook unset."""
        while frame is not None:
            if frame.f_code in _HOOKS:
                return True
            frame = frame.f_back
        return sys.gettrace() is None

    def _credit(code):
        """Record ``code`` entered and every line of it run."""
        entry = _pending.get(code) or _register(code)
        if entry is not None:
            path, lines = entry
            for line in sorted(lines):
                _write(f"{path}:{line}")
            lines.clear()
            _done.add(code)

    _install_handler = signal.signal

    def _signal(signum, handler):
        """``signal.signal``, with a Python handler that may run inside the hook.

        A pending signal's handler runs at the next bytecode check, which
        is often inside the hook, where nothing is traced (and
        ``sys.call_tracing`` traces nothing on 3.11); there the handler
        is credited with all its lines.  The package's handlers are one
        line each.  If it raises (the runner's cell alarm), CPython unsets
        the hook it raised through, so the next profile event sets the
        hook again (unless a profiler holds that slot).  A handler this
        returned (``signal.getsignal``'s answer) goes back in as it is.
        """
        if not callable(handler) or getattr(handler, "reach_guard", False):
            return _install_handler(signum, handler)

        def guarded(signum, frame):
            code = getattr(handler, "__code__", None)
            if code is not None and _untraced(frame):
                _credit(code)
            try:
                return handler(signum, frame)
            except BaseException:
                if sys.getprofile() is None:
                    sys.setprofile(_resume)
                raise

        guarded.reach_guard = True
        return _install_handler(signum, guarded)

    signal.signal = _signal
    sys.settrace(_on_call)
    threading.settrace(_on_call)
