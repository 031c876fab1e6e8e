"""Record every ``src/repro`` function a process enters (production reach).

Python imports this module at start-up when ``tests/reach`` is on
``PYTHONPATH``; it does nothing unless ``REPRO_REACH_LOG`` names a log
file and ``REPRO_REACH_ROOT`` the package directory.  A ``sys.settrace``
hook that keeps call events only (it returns no local tracer) writes
``path:first-line:name`` for each package code object the first time
this process enters it, with one ``os.write`` on an ``O_APPEND``
descriptor.  Nothing is buffered, so a pool worker that ends in
``os._exit`` or a daemon stopped by a signal loses no line.  A forked
child inherits the hook, the descriptor and the set of code already
reported; a child started with ``exec`` imports this module again.
Signal handlers are installed through :func:`_signal`, so one that runs
inside the hook is still logged and, if it raises, does not end the log.
"""

import os
import signal
import sys
import threading

_LOG = os.environ.get("REPRO_REACH_LOG")
_ROOT = os.environ.get("REPRO_REACH_ROOT")

if _LOG and _ROOT:
    _root = os.path.join(os.path.abspath(_ROOT), "")
    _fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()

    def _record(code):
        path = os.path.abspath(code.co_filename)
        if path.startswith(_root):
            line = f"{path[len(_root) :]}:{code.co_firstlineno}:{code.co_name}\n"
            os.write(_fd, line.encode())
        # Only once written: a signal handler raising above leaves it to retry.
        _seen.add(code)

    def _on_call(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _record(code)

    def _resume(frame, event, arg):
        sys.setprofile(None)
        sys.settrace(_on_call)

    _install_handler = signal.signal

    def _signal(signum, handler):
        """``signal.signal``, with a Python handler that may run inside the hook.

        A pending signal's handler runs at the next bytecode check, which
        is often the hook's first instruction.  There the handler is not
        traced, so it is logged here; and if it raises (the runner's cell
        alarm), CPython unsets the hook it raised through, so the next
        profile event sets the hook again (unless a profiler holds that
        slot).
        """
        if not callable(handler):
            return _install_handler(signum, handler)

        def guarded(signum, frame):
            code = getattr(handler, "__code__", None)
            if code is not None and code not in _seen:
                _record(code)
            try:
                return handler(signum, frame)
            except BaseException:
                if sys.getprofile() is None:
                    sys.setprofile(_resume)
                raise

        return _install_handler(signum, guarded)

    signal.signal = _signal
    sys.settrace(_on_call)
    threading.settrace(_on_call)
