"""Scalar references the package's array paths are proven against.

The slow, obviously right forms of what ``src/repro`` does in arrays,
the round-robin serving loop the one tick is held to, plus a prefetcher
that reads the future and the fault-injection prefetcher kinds the
sweep runner's own tests register.  No package module imports,
defines or names them (``tests/test_layout.py``).  Tests and benchmarks
import ``tests.oracles.*``: the root ``conftest.py`` puts the repository
root on ``sys.path``.
"""
