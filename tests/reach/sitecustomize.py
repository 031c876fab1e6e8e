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
"""

import os
import sys
import threading

_LOG = os.environ.get("REPRO_REACH_LOG")
_ROOT = os.environ.get("REPRO_REACH_ROOT")

if _LOG and _ROOT:
    _root = os.path.join(os.path.abspath(_ROOT), "")
    _fd = os.open(_LOG, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    _seen = set()

    def _on_call(frame, event, arg):
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            path = os.path.abspath(code.co_filename)
            if path.startswith(_root):
                line = f"{path[len(_root) :]}:{code.co_firstlineno}:{code.co_name}\n"
                os.write(_fd, line.encode())

    sys.settrace(_on_call)
    threading.settrace(_on_call)
