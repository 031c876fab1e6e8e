"""Small shared array utilities.

:func:`dot` and :func:`norm` are the package's one definition of a
vector dot product and norm: products summed left to right over the
last axis, each operation rounded on its own, so a result's bits never
depend on the CPU's BLAS kernel (DESIGN.md §14).

CSR (compressed sparse row) layouts -- a concatenated value array plus
an offsets array -- are the packed structure-of-arrays representation
used by the page table and the R-tree levels.  :func:`csr_expand` is
the gather that turns per-row (start, count) pairs into flat indices
into the value array, without a Python loop.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["csr_expand", "dot", "norm", "slice_of"]


def slice_of(key, n_slices: int):
    """Deterministic "key -> slice ``i`` of ``n``" assignment.

    The one modulo used everywhere the repo splits a keyed stream into
    ``n`` fixed slices: the sharded result store maps a cell key's
    leading hex digits to a store shard
    (:func:`repro.sim.results.shard_of`), and the sharded cache's
    ``hash`` partitioner maps page ids to cache shards
    (:mod:`repro.storage.sharded`).  Keeping both behind this helper
    pins them together: changing the assignment rule in one place would
    silently orphan persisted stores or reshuffle cache partitions, so
    the regression test (``tests/test_sharding.py``) asserts both call
    sites agree with this function.

    ``key`` may be a non-negative int or an integer ndarray (the modulo
    broadcasts); ``n_slices`` must be a positive int.
    """
    if n_slices <= 0:
        raise ValueError("n_slices must be positive")
    return key % n_slices


def dot(a: np.ndarray, b: np.ndarray):
    """``a0*b0 + a1*b1 + ...`` over the last axis, summed left to right.

    The one definition of a vector dot product in the package (DESIGN.md
    §14).  Two 1-D 3-vectors give a Python float; anything else
    broadcasts as numpy arrays (``dot(rows, vector)``, ``dot(rows,
    rows)``).  Every multiply and add rounds on its own -- Python floats
    and numpy ufuncs are correctly rounded and never fused -- so both
    forms give the same bits, on every CPU.  A BLAS ``ddot`` / ``gemv``
    (the 1-D ``@``, ``np.dot``, ``np.linalg.norm`` of one vector) picks
    its accumulation order and FMA use per CPU kernel instead.
    """
    if a.ndim == 1 and b.ndim == 1:
        a0, a1, a2 = a.tolist()
        b0, b1, b2 = b.tolist()
        return a0 * b0 + a1 * b1 + a2 * b2
    total = a[..., 0] * b[..., 0]
    for i in range(1, a.shape[-1]):
        total += a[..., i] * b[..., i]
    return total


def norm(v: np.ndarray):
    """``sqrt(dot(v, v))``, the Euclidean norm over the last axis.

    A 1-D 3-vector gives a Python float (``math.sqrt``), an array the
    per-row norms; the square root is correctly rounded either way.
    """
    if v.ndim == 1:
        x, y, z = v.tolist()
        return math.sqrt(x * x + y * y + z * z)
    return np.sqrt(dot(v, v))


def csr_expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices for variable-length runs ``[starts, starts+counts)``.

    Given ``n`` runs described by their start offsets and lengths,
    returns the concatenation ``[s0, s0+1, ..., s0+c0-1, s1, ...]`` as
    one int64 array.  Runs may overlap or be empty.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # A global ramp, shifted per run from "elements emitted before the
    # run started" to the run's start offset.
    before = np.cumsum(counts) - counts
    return np.repeat(starts - before, counts) + np.arange(total, dtype=np.int64)
