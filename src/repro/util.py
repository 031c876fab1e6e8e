"""Small shared array utilities.

CSR (compressed sparse row) layouts -- a concatenated value array plus
an offsets array -- are the packed structure-of-arrays representation
used by the page table and the R-tree levels.  :func:`csr_expand` is
the gather that turns per-row (start, count) pairs into flat indices
into the value array, without a Python loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["csr_expand", "pair_dots", "row_dots", "row_norms", "slice_of"]


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


def row_norms(vectors: np.ndarray) -> np.ndarray:
    """Per-row Euclidean norms, bit-identical to ``np.linalg.norm(row)``.

    The scalar 1-D ``np.linalg.norm`` computes ``sqrt(dot(x, x))``
    through the BLAS dot kernel; a batched matmul routes through the
    same kernel, while ``np.linalg.norm(..., axis=-1)`` (a square-sum
    reduction) can differ in the last bit.  Vectorized rewrites of
    scalar per-vector norms use this so their float results stay
    bit-identical to the loops they replaced.

    The matmul==ddot equality is a BLAS implementation detail, so the
    equivalence tests (``tests/test_vectorized_equivalence.py``) pin it
    per platform: on a BLAS where the kernels round differently they
    fail loudly rather than letting the paths drift apart silently.
    """
    return np.sqrt(pair_dots(vectors, vectors))


def row_dots(vectors: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``row @ vector`` per row, bit-identical to the 1-D ``@`` of each row.

    Same batched-matmul routing as :func:`row_norms` (a plain
    ``vectors @ vector`` goes through gemv and can differ in the last
    bit); ``tests/test_prediction_path_equivalence.py`` pins it.
    """
    return np.matmul(vectors[..., None, :], vector[:, None])[..., 0, 0]


def pair_dots(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """``left[i] @ right[i]`` per row, bit-identical to the 1-D ``@``.

    Each row pair is one stacked vector-vector matmul, which numpy
    hands to the BLAS dot kernel -- the kernel the 1-D ``@`` and
    ``np.linalg.norm`` use -- whereas ``(left * right).sum(-1)`` or
    ``einsum`` add the products in their own order and can differ in
    the last bit.  ``tests/test_tree_generation.py`` pins it.
    """
    return np.matmul(left[..., None, :], right[..., :, None])[..., 0, 0]


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
