"""Tree generation against the per-step walk it replaced.

``grow_forest`` grows trees in two passes (DESIGN.md §13): a draw pass
that makes every generator call in the walk's order, then a geometry
pass that advances every branch of a depth level as arrays.  The walk
-- one ``_perturb`` / 1-D ``norm`` per step, branches popped off a
LIFO queue -- lives on here as the oracle, with its four helpers and the
per-tree assembly loops of the neuron and arterial builders, and every
generated array must equal it byte for byte, with the same draws
consumed.

The pinned digests at the end hold the generators' absolute content,
so the oracle and the production path cannot drift together, and a
child process forced onto other BLAS kernels must build the same bytes
(DESIGN.md §14).
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.datagen.lung as lung_module
from repro.datagen import (
    BranchingConfig,
    Dataset,
    NavEdge,
    NavigationGraph,
    Polyline,
    grow_tree,
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
)
from repro.datagen.branching import TreeGeometry
from repro.datagen.neuron import NEURON_CONFIG, NEURON_TISSUE_DENSITY
from repro.datagen.vascular import ARTERIAL_CONFIG
from repro.util import dot, norm

# -- the per-step walk (the oracle) ------------------------------------------


def _unit(vector: np.ndarray) -> np.ndarray:
    length = norm(vector)
    if length == 0:
        return np.array([0.0, 0.0, 1.0])
    return vector / length


def _perturb(direction: np.ndarray, jitter: float, rng: np.random.Generator) -> np.ndarray:
    """Jitter a unit direction by a Gaussian angular perturbation."""
    return _unit(direction + jitter * rng.normal(size=3))


def _random_perpendicular(direction: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random unit vector perpendicular to ``direction``."""
    while True:
        candidate = rng.normal(size=3)
        perp = candidate - dot(candidate, direction) * direction
        length = norm(perp)
        if length > 1e-8:
            return perp / length


def _rotate_towards(direction: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Tilt ``direction`` by ``angle`` radians towards the perpendicular ``axis``."""
    return _unit(np.cos(angle) * direction + np.sin(angle) * axis)


def _walked_tree(
    rng: np.random.Generator,
    root: np.ndarray,
    initial_direction: np.ndarray,
    config: BranchingConfig,
    branch_id_offset: int = 0,
) -> TreeGeometry:
    """The replaced ``grow_tree``: one walk step at a time."""
    root = np.asarray(root, dtype=np.float64)
    initial_direction = _unit(np.asarray(initial_direction, dtype=np.float64))

    p0_list: list[np.ndarray] = []
    p1_list: list[np.ndarray] = []
    radius_list: list[float] = []
    branch_list: list[int] = []
    nav_nodes: list[np.ndarray] = [root]
    nav_edges: list[NavEdge] = []

    next_branch_id = branch_id_offset

    # Work queue of branches to grow: (start_node_index, direction, depth, radius).
    queue: list[tuple[int, np.ndarray, int, float]] = []
    for stem in range(config.n_stems):
        if config.n_stems == 1:
            direction = initial_direction
        else:
            direction = _perturb(initial_direction, 1.0, rng)
        queue.append((0, direction, 0, config.radius_root))

    while queue:
        start_node, direction, depth, radius = queue.pop()
        branch_id = next_branch_id
        next_branch_id += 1

        position = nav_nodes[start_node].copy()
        polyline_points = [position.copy()]
        steps = int(rng.integers(config.steps_per_branch[0], config.steps_per_branch[1] + 1))
        for _ in range(steps):
            direction = _perturb(direction, config.direction_jitter, rng)
            if config.kink_probability > 0 and rng.random() < config.kink_probability:
                axis = _random_perpendicular(direction, rng)
                direction = _rotate_towards(direction, axis, config.kink_angle)
            new_position = position + direction * config.step_length
            p0_list.append(position.copy())
            p1_list.append(new_position.copy())
            radius_list.append(radius)
            branch_list.append(branch_id)
            polyline_points.append(new_position.copy())
            position = new_position

        end_node = len(nav_nodes)
        nav_nodes.append(position.copy())
        nav_edges.append(NavEdge(start_node, end_node, Polyline(np.array(polyline_points))))

        bifurcates = (
            depth < config.max_depth and rng.random() < config.bifurcation_probability
        )
        if bifurcates:
            axis = _random_perpendicular(direction, rng)
            child_radius = radius * config.radius_decay
            for sign in (1.0, -1.0):
                child_dir = _rotate_towards(direction, sign * axis, config.bifurcation_angle / 2.0)
                queue.append((end_node, child_dir, depth + 1, child_radius))

    return TreeGeometry(
        p0=np.array(p0_list),
        p1=np.array(p1_list),
        radius=np.array(radius_list),
        branch_of_object=np.array(branch_list, dtype=np.int64),
        nav_nodes=np.array(nav_nodes),
        nav_edges=nav_edges,
    )


def _walked_dataset(name, rng, n_trees, place, config) -> Dataset:
    """The replaced per-tree assembly loop of the neuron and arterial builders."""
    p0_parts, p1_parts, radius_parts = [], [], []
    structure_parts, branch_parts = [], []
    nav_nodes_parts, nav_edges = [], []
    node_offset = 0
    branch_offset = 0

    for tree_id in range(n_trees):
        root, direction = place(rng)
        tree = _walked_tree(rng, root, direction, config, branch_id_offset=branch_offset)

        p0_parts.append(tree.p0)
        p1_parts.append(tree.p1)
        radius_parts.append(tree.radius)
        structure_parts.append(np.full(len(tree.p0), tree_id, dtype=np.int64))
        branch_parts.append(tree.branch_of_object)
        branch_offset = int(tree.branch_of_object.max()) + 1

        nav_nodes_parts.append(tree.nav_nodes)
        for edge in tree.nav_edges:
            nav_edges.append(NavEdge(edge.u + node_offset, edge.v + node_offset, edge.polyline))
        node_offset += len(tree.nav_nodes)

    return Dataset(
        name=name,
        p0=np.concatenate(p0_parts),
        p1=np.concatenate(p1_parts),
        radius=np.concatenate(radius_parts),
        structure_id=np.concatenate(structure_parts),
        branch_id=np.concatenate(branch_parts),
        nav=NavigationGraph(np.concatenate(nav_nodes_parts), nav_edges),
    )


def _walked_neuron_tissue(n_neurons, seed, extent=None, config=NEURON_CONFIG):
    rng = np.random.default_rng(seed)
    if extent is None:
        expected_branches = config.n_stems * (2 ** (config.max_depth + 1) - 1)
        expected_steps = sum(config.steps_per_branch) / 2.0
        expected_objects = n_neurons * expected_branches * expected_steps
        extent = (expected_objects / NEURON_TISSUE_DENSITY) ** (1.0 / 3.0)

    def place(rng):
        soma = rng.uniform(0.0, extent, size=3)
        initial_direction = rng.normal(size=3)
        return soma, initial_direction

    return _walked_dataset("neuron-tissue", rng, n_neurons, place, config)


def _walked_arterial_tree(seed, max_depth=None):
    config = ARTERIAL_CONFIG
    if max_depth is not None:
        config = replace(config, max_depth=int(max_depth))
    rng = np.random.default_rng(seed)

    def place(rng):
        root = np.full(3, 400.0 / 2.0)
        direction = rng.normal(size=3)
        return root, direction

    return _walked_dataset("arterial-tree", rng, 1, place, config)


# -- byte views ----------------------------------------------------------------


def _array_bytes(array: np.ndarray) -> tuple:
    return (array.dtype.str, array.shape, array.tobytes())


def _edges_bytes(edges) -> list[tuple]:
    return [
        (
            edge.u,
            edge.v,
            type(edge.u),
            type(edge.v),
            _array_bytes(edge.polyline.points),
            _array_bytes(edge.polyline._cumulative),
            edge.polyline.points.base is None,  # each polyline owns its points
        )
        for edge in edges
    ]


def _tree_bytes(tree: TreeGeometry) -> tuple:
    arrays = (tree.p0, tree.p1, tree.radius, tree.branch_of_object, tree.nav_nodes)
    return (*(_array_bytes(a) for a in arrays), _edges_bytes(tree.nav_edges))


def _dataset_bytes(dataset: Dataset) -> tuple:
    arrays = [
        dataset.p0,
        dataset.p1,
        dataset.radius,
        dataset.structure_id,
        dataset.branch_id,
        dataset.nav.nodes,
    ]
    if dataset.explicit_edges is not None:
        arrays.append(dataset.explicit_edges)
    edges = _edges_bytes(dataset.nav.edges)
    return (dataset.name, dataset.dims, *(_array_bytes(a) for a in arrays), edges)


def _assert_same_tree(rng_args, root, direction, config):
    walk_rng, rng = np.random.default_rng(*rng_args), np.random.default_rng(*rng_args)
    expected = _walked_tree(walk_rng, root, direction, config)
    tree = grow_tree(rng, root, direction, config)
    assert _tree_bytes(tree) == _tree_bytes(expected)
    assert rng.bit_generator.state == walk_rng.bit_generator.state


# -- equality with the walk ------------------------------------------------------


class TestMatchesTheWalk:
    @settings(deadline=None, max_examples=120)
    @given(
        n_stems=st.integers(1, 3),
        max_depth=st.integers(0, 4),
        steps=st.tuples(st.integers(1, 8), st.integers(1, 8)).map(lambda s: tuple(sorted(s))),
        kink_probability=st.sampled_from([0.0, 0.18, 0.5, 1.0]),
        bifurcation_probability=st.sampled_from([0.5, 1.0]),
        direction_jitter=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**32 - 1),
        direction=st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, -2.0, 0.5)]),
    )
    def test_grow_tree(
        self,
        n_stems,
        max_depth,
        steps,
        kink_probability,
        bifurcation_probability,
        direction_jitter,
        seed,
        direction,
    ):
        config = BranchingConfig(
            n_stems=n_stems,
            max_depth=max_depth,
            steps_per_branch=steps,
            kink_probability=kink_probability,
            bifurcation_probability=bifurcation_probability,
            direction_jitter=direction_jitter,
        )
        root = np.array([1.5, -3.0, 7.25])
        _assert_same_tree((seed,), root, np.array(direction), config)

    @pytest.mark.parametrize("n_neurons", [1, 8, 16, 40])
    def test_neuron_tissue(self, n_neurons):
        tissue = make_neuron_tissue(n_neurons=n_neurons, seed=7)
        assert _dataset_bytes(tissue) == _dataset_bytes(_walked_neuron_tissue(n_neurons, 7))

    def test_neuron_tissue_with_an_explicit_extent(self):
        tissue = make_neuron_tissue(n_neurons=5, seed=3, extent=100.0)
        expected = _walked_neuron_tissue(5, 3, extent=100.0)
        assert _dataset_bytes(tissue) == _dataset_bytes(expected)

    @pytest.mark.parametrize("max_depth", [None, 3], ids=["config-depth", "depth-3"])
    def test_arterial_tree(self, max_depth):
        trees = make_arterial_tree(seed=5, max_depth=max_depth)
        assert _dataset_bytes(trees) == _dataset_bytes(_walked_arterial_tree(5, max_depth))

    def test_lung_airways(self, monkeypatch):
        airways = make_lung_airways(seed=5, max_depth=3)
        monkeypatch.setattr(lung_module, "grow_tree", _walked_tree)
        assert _dataset_bytes(airways) == _dataset_bytes(make_lung_airways(seed=5, max_depth=3))


# -- the perpendicular redraw -------------------------------------------------------


class _ScriptedRng:
    """A seeded generator whose n-th ``normal`` draw (1-based) can be scripted.

    A scripted draw still consumes the seeded draw it replaces, so the
    stream stays in step.  ``bit_generator.state`` covers the call count.
    """

    def __init__(self, seed: int, script: dict[int, tuple[float, float, float]]) -> None:
        self._inner = np.random.default_rng(seed)
        self._script = script
        self.normals = 0

    @property
    def bit_generator(self):
        return self

    @property
    def state(self):
        return self._inner.bit_generator.state, self.normals

    @state.setter
    def state(self, value) -> None:
        self._inner.bit_generator.state, self.normals = value

    def normal(self, size=None):
        drawn = self._inner.normal(size=size)
        self.normals += 1
        if self.normals in self._script:
            return np.array(self._script[self.normals], dtype=np.float64)
        return drawn

    def random(self):
        return self._inner.random()

    def integers(self, low, high):
        return self._inner.integers(low, high)


UP5 = (0.0, 0.0, 5.0)  # parallel to [0, 0, 1]: its perpendicular is exactly zero
ZERO = (0.0, 0.0, 0.0)


class TestRedraw:
    """Directions pinned to ``[0, 0, 1]`` (no jitter, zero angles), so a
    scripted ``[0, 0, 5]`` candidate is rejected wherever it lands."""

    @staticmethod
    def _assert_same_redraws(config, script, normals):
        walk_rng, rng = _ScriptedRng(11, script), _ScriptedRng(11, script)
        up = np.array([0.0, 0.0, 1.0])
        expected = _walked_tree(walk_rng, np.zeros(3), up, config)
        assert walk_rng.normals == normals  # the scenario below really ran
        tree = grow_tree(rng, np.zeros(3), up, config)
        assert _tree_bytes(tree) == _tree_bytes(expected)
        assert rng.bit_generator.state == walk_rng.bit_generator.state
        assert rng.random() == walk_rng.random()

    def test_a_bifurcation_candidate_is_redrawn(self):
        # integers, jitter draws 1-3, the coin, candidate 4 (rejected) and 5;
        # then two children of 3 jitter draws each.
        config = BranchingConfig(
            n_stems=1, max_depth=1, steps_per_branch=(3, 3), direction_jitter=0.0
        )
        self._assert_same_redraws(config, {4: UP5}, normals=11)

    def test_a_redrawn_kink_candidate_is_redrawn_again(self):
        # Step 1 draws jitter 1 and kink candidates 2 and 3 (both rejected)
        # and 4; steps 2 and 3 draw a jitter and one candidate each.
        config = BranchingConfig(
            n_stems=1,
            max_depth=0,
            steps_per_branch=(3, 3),
            direction_jitter=0.0,
            kink_probability=1.0,
            kink_angle=0.0,
        )
        self._assert_same_redraws(config, {2: UP5, 3: UP5}, normals=8)

    def test_the_earliest_rejected_draw_is_redrawn_first(self):
        # Two stems of 2 steps, forks down to depth 2, zero fork angle.
        # Draws 1-2 zero the stem noise.  The second stem pops first: its
        # fork candidate is draw 5 (ordinal 0); its "-" child's is draw 8
        # (ordinal 1, rejected, redrawn as 9).  The first stem's subtree
        # follows: its jitter draws 21-22 and fork candidate 23 (ordinal 3,
        # rejected, redrawn as 24).  Before draw 8 is redrawn the stream
        # runs one draw early, so the first stem's fork sees the scripted
        # draw 22 -- a rejection at depth 0 with a *later* ordinal than
        # the depth-1 one, which must be redrawn first.
        config = BranchingConfig(
            n_stems=2,
            max_depth=2,
            steps_per_branch=(2, 2),
            direction_jitter=0.0,
            bifurcation_angle=0.0,
        )
        script = {1: ZERO, 2: ZERO, 8: UP5, 22: UP5, 23: UP5}
        self._assert_same_redraws(config, script, normals=38)


# -- one dot, one norm ----------------------------------------------------------------

#: Coordinates that stress rounding: zeros of both signs, subnormals,
#: and magnitudes from 1e-150 to 1e150 mixed within one vector (small
#: enough that no product overflows).
_edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-150, 1e150]
_coordinates = st.floats(-1e150, 1e150, allow_subnormal=True) | st.sampled_from(_edges)
_rows = st.lists(st.tuples(_coordinates, _coordinates, _coordinates), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(left=_rows, right=_rows)
def test_row_forms_of_dot_and_norm_equal_the_one_dimensional_forms(left, right):
    """``dot`` / ``norm`` of an array equal the 1-D call on each row, byte for byte.

    The 1-D form computes in Python floats and the row form in numpy
    ufuncs; both round each product and sum on its own, left to right.
    """
    n = min(len(left), len(right))
    a, b = np.array(left[:n]), np.array(right[:n])
    assert dot(a, b).tobytes() == np.array([dot(x, y) for x, y in zip(a, b)]).tobytes()
    assert dot(a, b[0]).tobytes() == np.array([dot(x, b[0]) for x in a]).tobytes()
    assert norm(a).tobytes() == np.array([norm(x) for x in a]).tobytes()


# -- pinned content ------------------------------------------------------------------


def _dataset_digest(dataset: Dataset) -> str:
    digest = hashlib.sha256()
    for array in (
        dataset.p0,
        dataset.p1,
        dataset.radius,
        dataset.structure_id,
        dataset.branch_id,
        dataset.nav.nodes,
    ):
        digest.update(array.tobytes())
    for edge in dataset.nav.edges:
        digest.update(np.array([edge.u, edge.v], dtype=np.int64).tobytes())
        digest.update(edge.polyline.points.tobytes())
    return digest.hexdigest()[:16]


PINNED_DIGESTS = {
    "neuron n=40 seed 7": (lambda: make_neuron_tissue(n_neurons=40, seed=7), "abb579eb391b1796"),
    "neuron n=16 seed 7": (lambda: make_neuron_tissue(n_neurons=16, seed=7), "37d84201de3e1a96"),
    "neuron n=8 seed 7": (lambda: make_neuron_tissue(n_neurons=8, seed=7), "bc14d0b83a41e11d"),
    "tissue fixture": (lambda: make_neuron_tissue(n_neurons=12, seed=11), "9331dacd7b5cbf46"),
    "arterial": (lambda: make_arterial_tree(seed=3, max_depth=3), "697d6e53fec73e4d"),
    "lung": (lambda: make_lung_airways(seed=3, max_depth=3), "13f9cdc05431c6dc"),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_generated_content_is_pinned(name):
    """SHA-256 (first 16 hex digits) of every generated array and polyline.

    These are the datasets the benchmark, the daemon and the test
    fixtures build.  No BLAS kernel computes any of their floats
    (DESIGN.md §14), so the digests are the same on every CPU;
    :func:`test_content_is_the_same_under_other_blas_kernels` checks it.
    """
    build, expected = PINNED_DIGESTS[name]
    assert _dataset_digest(build()) == expected


# -- the same bits under other BLAS kernels ------------------------------------------

#: Kernels to force through ``OPENBLAS_CORETYPE``, with the names OpenBLAS
#: reports when it honours the request (a ``DYNAMIC_ARCH`` build runs
#: Prescott on its Katmai kernel).
_FORCED_KERNELS = {"Haswell": {"Haswell"}, "Prescott": {"Prescott", "Katmai"}}

_CHILD_DATASET = "neuron n=8 seed 7"


def _blas_core() -> str | None:
    """The OpenBLAS kernel numpy's bundled library runs, or ``None`` if unknown."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


@pytest.mark.parametrize("kernel", sorted(_FORCED_KERNELS))
def test_content_is_the_same_under_other_blas_kernels(kernel):
    """A child process forced onto another BLAS kernel builds the same tissue."""
    if _blas_core() is None:
        pytest.skip("numpy's BLAS does not report its kernel")
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE=kernel,
        PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
    )
    child = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, check=True, timeout=300
    )
    core, digest = child.stdout.split()
    if core not in _FORCED_KERNELS[kernel]:
        pytest.skip(f"OPENBLAS_CORETYPE={kernel} not honoured: the child ran {core}")
    build, pinned = PINNED_DIGESTS[_CHILD_DATASET]
    assert digest == _dataset_digest(build()) == pinned


if __name__ == "__main__":
    # The child of the test above: its kernel and its digest.
    print(_blas_core(), _dataset_digest(PINNED_DIGESTS[_CHILD_DATASET][0]()))
