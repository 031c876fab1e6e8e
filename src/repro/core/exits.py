"""Exit/entry classification of boundary crossings (paper §4.3-§4.4).

A structure crossing the query boundary does so either on the side the
user came from (an *entry*: it connects to the previous query) or on the
far side (an *exit*: a place the user may go next).  The classifier uses
the observed movement direction of the sequence; for the first query no
movement exists and every crossing is a potential exit.
"""

from __future__ import annotations

import numpy as np

from repro.graph.traversal import Crossing
from repro.util import dot, norm

__all__ = ["split_entries_exits_grouped", "estimate_gap"]

_EPS = 1e-12


def split_entries_exits_grouped(
    groups: list[list[Crossing]],
    region_center: np.ndarray,
    movement: np.ndarray | None,
) -> list[tuple[list[Crossing], list[Crossing]]]:
    """Partition each group's crossings into ``(entries, exits)``, in one array pass.

    A crossing is an exit when it lies on the leading half of the query
    region relative to the movement direction, or -- for crossings near
    the dividing plane -- when the structure's outward direction points
    with the movement.  Without movement information everything is an
    exit (first query of a sequence: the user may go anywhere).

    The tracker classifies the crossings of all of a result's components
    at once; :func:`repro.util.dot` / :func:`repro.util.norm` give each
    row the bits of the per-crossing scalar expression.
    """
    flat = [crossing for group in groups for crossing in group]
    speed = 0.0 if movement is None else norm(movement)
    if speed < _EPS or not flat:
        return [([], list(group)) for group in groups]
    forward = movement / speed
    rel = np.array([crossing.point for crossing in flat]) - region_center
    heading = dot(np.array([crossing.direction for crossing in flat]), forward)
    # Positional test dominates; the heading breaks near-plane ties.
    score = dot(rel, forward) + 0.25 * heading * norm(rel)
    is_exit = iter((score > 0).tolist())
    split = []
    for group in groups:
        entries: list[Crossing] = []
        exits: list[Crossing] = []
        for crossing in group:
            (exits if next(is_exit) else entries).append(crossing)
        split.append((entries, exits))
    return split


def estimate_gap(centers: list[np.ndarray], side: float) -> float:
    """Estimated boundary-to-boundary gap of the next query (§5.3).

    The paper uses the distance between the last two queries as the
    prediction for the next gap; gaps are "typically governed by a
    particular characteristic of the use case ... and remain the same
    throughout a sequence".
    """
    if len(centers) < 2:
        return 0.0
    spacing = norm(centers[-1] - centers[-2])
    return max(0.0, spacing - side)
