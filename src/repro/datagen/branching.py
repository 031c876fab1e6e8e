"""Stochastic branching-process generator.

All three biological datasets in the paper (neuron fibers, arterial
trees, lung airways) are trees of tubular branches that wander through
space and bifurcate.  This module grows such trees: a branch is a random
walk with direction persistence and per-step angular jitter; at its end
it either terminates or bifurcates into two children whose directions
fan out by a configurable angle.  The jitter magnitude is the knob that
separates "smooth artery" (where polynomial extrapolation shines, Fig
17a) from "tortuous neuron fiber" (where it fails, Fig 3).

Trees grow in two passes (DESIGN.md §13).  The *draw pass* makes every
generator call in the order a branch-by-branch walk makes them: the
branches pop off a LIFO queue, and each draws its step count, then per
step a jitter vector, a kink coin and, on a kink, a candidate axis,
then its bifurcation coin and candidate.  No draw depends on geometry
(bar the redraw of a candidate parallel to its direction, handled by a
rerun), so the draws are recorded into flat arrays first.  The
*geometry pass* then grows one depth at a time across every tree at
once, each step a few array operations over the branches still
walking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datagen.dataset import NavEdge, Polyline
from repro.util import dot, norm

__all__ = ["BranchingConfig", "TreeGeometry", "grow_forest", "grow_tree"]


@dataclass(frozen=True)
class BranchingConfig:
    """Parameters of one grown tree."""

    n_stems: int = 2
    max_depth: int = 4
    steps_per_branch: tuple[int, int] = (10, 18)
    step_length: float = 4.0
    direction_jitter: float = 0.30
    bifurcation_angle: float = 0.6
    bifurcation_probability: float = 1.0
    radius_root: float = 1.2
    radius_decay: float = 0.8

    #: Probability per step of an abrupt turn by ``kink_angle`` radians.
    #: Real fiber trajectories (dendrites, bronchi) are not smooth random
    #: walks -- they take sharp turns, which is what defeats trajectory
    #: extrapolation in the paper's Figure 3.
    kink_probability: float = 0.0
    kink_angle: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = self.steps_per_branch
        if not (1 <= lo <= hi):
            raise ValueError("steps_per_branch must satisfy 1 <= lo <= hi")
        if self.n_stems < 1 or self.max_depth < 0:
            raise ValueError("n_stems must be >= 1 and max_depth >= 0")
        if self.step_length <= 0 or self.radius_root <= 0:
            raise ValueError("step_length and radius_root must be positive")
        if not 0.0 <= self.bifurcation_probability <= 1.0:
            raise ValueError("bifurcation_probability must be in [0, 1]")
        if not 0.0 <= self.kink_probability <= 1.0:
            raise ValueError("kink_probability must be in [0, 1]")


@dataclass
class TreeGeometry:
    """Everything produced by growing one tree.

    ``p0``/``p1``/``radius`` describe the cylinders; ``branch_of_object``
    maps each cylinder to its branch; ``nav_nodes``/``nav_edges`` are the
    junction graph contribution (node indices are local to this tree).
    """

    p0: np.ndarray
    p1: np.ndarray
    radius: np.ndarray
    branch_of_object: np.ndarray
    nav_nodes: np.ndarray
    nav_edges: list[NavEdge]


#: ``place(rng) -> (root, direction)``: a tree's own placement draws.
Placement = Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray]]

#: The direction a zero vector normalises to.
_UP = np.array([0.0, 0.0, 1.0])
#: A perpendicular no longer than this is redrawn: the candidate was
#: (numerically) parallel to the direction it must be perpendicular to.
_MIN_PERPENDICULAR = 1e-8


@dataclass
class _Draws:
    """Every generator draw of a forest, in flat arrays.

    Branches are in pop order, tree by tree; a branch's steps are the
    contiguous rows ``step_start[b] : step_start[b] + steps[b]`` of
    ``jitter`` and ``kink``.  Candidates are numbered by draw order
    (their *ordinal*); ``kink`` and ``split`` hold an ordinal or -1.
    """

    roots: np.ndarray  # (trees, 3)
    heads: np.ndarray  # (trees, 3): each tree's initial direction, as placed
    stem_noise: np.ndarray  # (trees * n_stems, 3), empty for one stem
    tree: np.ndarray  # per branch
    depth: np.ndarray
    link: np.ndarray  # the parent branch; a stem's row in stem_noise
    sign: np.ndarray  # which side of the parent's fork (+1.0 / -1.0)
    steps: np.ndarray
    split: np.ndarray  # the bifurcation candidate
    jitter: np.ndarray  # (steps, 3)
    kink: np.ndarray  # per step: the kink candidate
    candidates: np.ndarray  # (ordinals, 3)


def _draw(
    rng: np.random.Generator,
    n_trees: int,
    place: Placement,
    config: BranchingConfig,
    redraws: dict[int, int],
) -> _Draws:
    """The draw pass: every generator call, in the order a walk makes it.

    ``redraws`` maps a candidate ordinal to the number of candidates the
    geometry pass rejected there; each is drawn and dropped before the
    one kept, exactly as the rejecting walk would redraw.
    """
    lo, hi = config.steps_per_branch
    kinks = config.kink_probability > 0
    normal, random, integers = rng.normal, rng.random, rng.integers
    roots, heads, stem_noise, branches = [], [], [], []
    jitter: list[np.ndarray] = []
    kink: list[int] = []
    candidates: list[np.ndarray] = []

    def candidate() -> int:
        ordinal = len(candidates)
        for _ in range(redraws.get(ordinal, 0)):
            normal(size=3)
        candidates.append(normal(size=3))
        return ordinal

    for tree in range(n_trees):
        root, head = place(rng)
        roots.append(np.asarray(root, dtype=np.float64))
        heads.append(np.asarray(head, dtype=np.float64))
        if config.n_stems > 1:
            stem_noise.extend(normal(size=3) for _ in range(config.n_stems))
        # LIFO work queue of (link, sign, depth), popped like the walk's.
        queue = [(tree * config.n_stems + stem, 1.0, 0) for stem in range(config.n_stems)]
        while queue:
            link, sign, depth = queue.pop()
            branch = len(branches)
            steps = int(integers(lo, hi + 1))
            rows = []
            for _ in range(steps):
                rows.append(normal(size=3))
                kink.append(candidate() if kinks and random() < config.kink_probability else -1)
            jitter.append(np.array(rows))  # a block per branch: few 3-vectors alive at once
            split = -1
            if depth < config.max_depth and random() < config.bifurcation_probability:
                split = candidate()
                queue.append((branch, 1.0, depth + 1))
                queue.append((branch, -1.0, depth + 1))
            branches.append((tree, depth, link, sign, steps, split))

    tree, depth, link, sign, steps, split = (np.array(column) for column in zip(*branches))
    return _Draws(
        roots=np.array(roots),
        heads=np.array(heads),
        stem_noise=np.array(stem_noise).reshape(-1, 3),
        tree=tree,
        depth=depth,
        link=link,
        sign=sign,
        steps=steps,
        split=split,
        jitter=np.concatenate(jitter),
        kink=np.array(kink),
        candidates=np.array(candidates).reshape(-1, 3),
    )


# The geometry pass reproduces the walk's floats bit for bit under two
# rules (DESIGN.md §13):
#
# - Constants are computed once, the way the walk computes them:
#   ``np.cos(kink_angle)``, ``np.sin(...)``, ``bifurcation_angle / 2.0``;
#   ``sign * axis`` stays its own multiply, and a zero vector still
#   normalises to ``[0, 0, 1]`` (through ``np.where``).
# - The perpendicular redraw stays exact: a candidate whose perpendicular
#   is no longer than 1e-8 is reported by ordinal, and the caller reruns
#   the draw pass with one more candidate drawn there.


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = norm(vectors)[:, None]
    return np.where(norms == 0, _UP, vectors / norms)


def _perpendicular(directions: np.ndarray, candidates: np.ndarray):
    """Each candidate's unit component perpendicular to its direction.

    Also returns which rows the walk would have redrawn.
    """
    perp = candidates - dot(candidates, directions)[:, None] * directions
    norms = norm(perp)
    return perp / norms[:, None], ~(norms > _MIN_PERPENDICULAR)


def _geometry(draws: _Draws, config: BranchingConfig):
    """The geometry pass: one depth at a time, every tree at once.

    Returns ``(forest, tree_of_object, rejected)``, where ``rejected`` is
    the smallest ordinal of a candidate the walk would have redrawn, or
    ``None``.  The smallest, because every draw before it is the walk's
    own, so the walk rejected it too; a later rejection may come from
    draws the missing redraw shifted.  Nothing is returned then.
    """
    steps = draws.steps
    n_branches, n_trees = len(steps), len(draws.roots)
    # Branch b owns the point rows row_start[b] .. row_start[b] + steps[b]
    # (its start, then one row per step) in pop order.
    row_start = np.cumsum(steps + 1) - (steps + 1)
    step_start = np.cumsum(steps) - steps
    points = np.empty((n_branches + len(draws.jitter), 3))
    end_position = np.empty((n_branches, 3))
    end_direction = np.empty((n_branches, 3))
    fork_axis = np.empty((n_branches, 3))
    rejected: list[np.ndarray] = []

    heads = _unit_rows(draws.heads)
    cos_kink, sin_kink = np.cos(config.kink_angle), np.sin(config.kink_angle)
    half_angle = config.bifurcation_angle / 2.0
    cos_fork, sin_fork = np.cos(half_angle), np.sin(half_angle)

    for depth in range(config.max_depth + 1):
        level = np.flatnonzero(draws.depth == depth)
        if not len(level):
            break
        # Longest first: the branches still walking at step s are a prefix.
        level = level[np.argsort(-steps[level], kind="stable")]
        link = draws.link[level]
        if depth == 0:
            position = draws.roots[draws.tree[level]]
            direction = heads[draws.tree[level]]
            if config.n_stems > 1:
                direction = _unit_rows(direction + 1.0 * draws.stem_noise[link])
        else:
            position = end_position[link]
            side = draws.sign[level][:, None] * fork_axis[link]
            direction = _unit_rows(cos_fork * end_direction[link] + sin_fork * side)

        rows, draw = row_start[level], step_start[level]
        points[rows] = position
        walking = len(level) - np.cumsum(np.bincount(steps[level]))[:-1]
        for step, n in enumerate(walking.tolist()):
            at = draw[:n] + step
            heading = _unit_rows(direction[:n] + config.direction_jitter * draws.jitter[at])
            kink = draws.kink[at]
            turn = np.flatnonzero(kink >= 0)
            if len(turn):
                axis, redraw = _perpendicular(heading[turn], draws.candidates[kink[turn]])
                rejected.append(kink[turn][redraw])
                heading[turn] = _unit_rows(cos_kink * heading[turn] + sin_kink * axis)
            direction[:n] = heading
            position[:n] = position[:n] + heading * config.step_length
            points[rows[:n] + step + 1] = position[:n]

        end_position[level] = position
        end_direction[level] = direction
        split = draws.split[level]
        fork = np.flatnonzero(split >= 0)
        fork_axis[level[fork]], redraw = _perpendicular(
            direction[fork], draws.candidates[split[fork]]
        )
        rejected.append(split[fork][redraw])

    rejected_ordinals = np.concatenate(rejected)
    if len(rejected_ordinals):
        return None, None, int(rejected_ordinals.min())

    # Node ids: each tree's root, then its branch ends in pop order.
    end_node = np.arange(n_branches) + draws.tree + 1
    root_node = np.searchsorted(draws.tree, np.arange(n_trees)) + np.arange(n_trees)
    nodes = np.empty((n_branches + n_trees, 3))
    nodes[root_node] = draws.roots
    nodes[end_node] = end_position
    start_node = np.where(draws.depth == 0, root_node[draws.tree], end_node[draws.link])

    row_end = row_start + steps
    last, first = np.zeros(len(points), dtype=bool), np.zeros(len(points), dtype=bool)
    last[row_end], first[row_start] = True, True
    radii = [config.radius_root]
    for _ in range(config.max_depth):
        radii.append(radii[-1] * config.radius_decay)
    forest = TreeGeometry(
        p0=points[~last],
        p1=points[~first],
        radius=np.repeat(np.array([radii[depth] for depth in draws.depth.tolist()]), steps),
        branch_of_object=np.repeat(np.arange(n_branches, dtype=np.int64), steps),
        nav_nodes=nodes,
        nav_edges=[
            NavEdge(u, v, Polyline(points[a : b + 1].copy()))
            for u, v, a, b in zip(
                start_node.tolist(), end_node.tolist(), row_start.tolist(), row_end.tolist()
            )
        ],
    )
    return forest, np.repeat(draws.tree.astype(np.int64), steps), None


def grow_forest(
    rng: np.random.Generator,
    n_trees: int,
    place: Placement,
    config: BranchingConfig,
) -> tuple[TreeGeometry, np.ndarray]:
    """Grow ``n_trees`` trees, calling ``place(rng)`` before each one's draws.

    ``place`` makes the tree's own placement draws and returns its root
    and initial direction.  Returns the trees concatenated in one
    :class:`TreeGeometry` (node and branch ids numbered across the
    forest, tree by tree) and each cylinder's tree index.  The bytes,
    and the draws consumed, are those of growing the trees one after
    another with a per-step walk.
    """
    state = rng.bit_generator.state
    redraws: dict[int, int] = {}
    while True:
        draws = _draw(rng, n_trees, place, config, redraws)
        with np.errstate(divide="ignore", invalid="ignore"):
            forest, tree_of_object, rejected = _geometry(draws, config)
        if rejected is None:
            return forest, tree_of_object
        # Probability ~1e-16 per candidate: the walk drew one more there.
        redraws[rejected] = redraws.get(rejected, 0) + 1
        rng.bit_generator.state = state


def grow_tree(
    rng: np.random.Generator,
    root: np.ndarray,
    initial_direction: np.ndarray,
    config: BranchingConfig,
) -> TreeGeometry:
    """Grow one branching tree rooted at ``root``.

    Every branch contributes one navigation edge (its polyline) between
    its start and end junction nodes, and one cylinder object per step.
    """
    tree, _ = grow_forest(rng, 1, lambda _: (root, initial_direction), config)
    return tree
