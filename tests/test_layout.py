"""Package layout: one table of "No X back" rules, one checker.

Each row of :data:`RULES` keeps one retired path out of ``src/repro``:
its DESIGN.md section, the paths it scans, one finder (a line regex with
``grep -E`` semantics on every line, comments included, or an AST
finder), the lines it allows, the counterexamples it must flag and the
near misses it must spare.  The tree obeys every row, and every row is
proven to fire.  :data:`REMOVED_KEYWORDS` binds each keyword only tests
set against its callable's signature (DESIGN.md §2), and
:data:`SPEC_FIELDS` pins what the layer specs and the engine config
still let a caller set.
"""

from __future__ import annotations

import ast
import inspect
import re
from collections.abc import Callable
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import repro
from repro.baselines import HilbertPrefetcher, VelocityPrefetcher
from repro.core import CandidateTracker, ScoutConfig, kmeans
from repro.datagen import (
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
    make_road_network,
)
from repro.datagen.branching import grow_tree
from repro.geometry import Frustum
from repro.serve import DaemonConfig
from repro.serve.loadgen import bursty_arrivals, run_loadgen
from repro.sim.engine import QuerySession, SimulationConfig
from repro.storage.faults import FaultyDiskModel
from repro.storage.sharded import ShardSpec
from repro.storage.tiered import StorageSpec, TieredStore

PACKAGE = Path(repro.__file__).parent

RETIRED_MODULES = ("repro.perf", "pytest_benchmark")

#: Every name that left the package: the scalar oracles, now in
#: ``tests/oracles/`` (``slab_clip`` and ``object_crossings`` under a
#: public name there, the round-robin serving loop as a simulator
#: subclass), the API only tests called, the daemon's lazy-taping
#: and page-file-removal state, and the second latency report.  No ``src/repro``
#: module may define one (function, class or method) or name one.
_GONE = """
    oracles scalar_ref ScalarSTRTree ScalarFlatIndex pages_for_region_scalar
    region_crossings_reference _object_crossings object_crossings build_graph_brute_force
    segment_segment_distance cells_of_segment clip_segment_to_aabb _slab_clip slab_clip
    segment_aabb_intersects OraclePrefetcher bind_sequence
    Segment point_segment_distance flat_id reset_stats aabbs_intersect_arrays
    refine_crossing_direction
    FAULT_PREFETCHER_BUILDERS _build_sleep_prefetcher _build_fail_prefetcher _build_exit_prefetcher
    _run_round_robin RoundRobinSimulator
    _untaped walk_tape _owns_pagefile
    LatencyReport
"""
GONE_FROM_PACKAGE = tuple(_GONE.split())
#: The one oracle left in the package, by its home: the e2e tracer
#: (``benchmarks/e2e/e2e_trace.py``) patches it by name.
KEPT_ORACLES = {"ArrayCache": "storage/cache.py"}


def _names(node: ast.AST) -> list[str]:
    """The dotted names a node defines, imports or mentions (strings do not count)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [f"{module}.{alias.name}" for alias in node.names]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _retired_imports(tree: ast.AST, rel: str) -> list[str]:
    """``rel:line imports X`` for every import of a retired module or its members."""
    return [
        f"{rel}:{node.lineno} imports {name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _names(node)
        if any(name == module or name.startswith(module + ".") for module in RETIRED_MODULES)
    ]


def _oracle_names(tree: ast.AST, rel: str) -> list[str]:
    """``rel:line names X`` for every gone or misplaced oracle name in a module."""
    banned = set(GONE_FROM_PACKAGE) | {name for name, home in KEPT_ORACLES.items() if home != rel}
    return [
        f"{rel}:{node.lineno} names {oracle}"
        for node in ast.walk(tree)
        for name in _names(node)
        for oracle in sorted(banned & set(name.split(".")))
    ]


def _row_reductions(tree: ast.AST, rel: str) -> list[str]:
    """``rel:line reduces rows`` for every ``all`` / ``any`` over axis 1 (or -1).

    The axis counts as a keyword, or positionally: first argument of a
    method (``ok.all(1)``), second of a function (``np.any(ok, 1)``).
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and not (
            isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        ):
            name, position = func.attr, 0
        else:
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            position = 1
        if name not in ("all", "any"):
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axes += node.args[position : position + 1]
        for axis in axes:
            try:
                value = ast.literal_eval(axis)
            except ValueError:
                continue
            if value in (1, -1):
                found.append(f"{rel}:{node.lineno} reduces rows with {name}")
    return found


@dataclass(frozen=True)
class Rule:
    """One "No X back" rule: where it looks, how it finds, what proves it fires."""

    design: str
    #: A line regex (``grep -E`` on every line of every file), or an AST
    #: finder ``(tree, rel) -> ["rel:line ..."]`` over the ``.py`` files.
    finds: str | Callable[[ast.AST, str], list[str]]
    #: Space-separated files or directories under ``src/repro`` (none: all).
    paths: str = ""
    #: Source planted at the first path (else ``planted.py``), or ``(path, source)``.
    flags: tuple[str | tuple[str, str], ...] = ()
    spares: tuple[str | tuple[str, str], ...] = ()
    #: File names skipped wherever they are (``grep --exclude``).
    exclude: tuple[str, ...] = ()
    #: Lines the regex may match, compared with surrounding blanks stripped.
    allowed: tuple[str, ...] = ()

    def check(self, files: list[tuple[str, str]]) -> list[str]:
        """Every hit of this rule in the ``(path under src/repro, text)`` files."""
        homes, found = self.paths.split() or [""], []
        for rel, text in files:
            if Path(rel).name in self.exclude or not any(
                not home or rel == home or rel.startswith(home + "/") for home in homes
            ):
                continue
            if callable(self.finds):
                found += self.finds(ast.parse(text), rel) if rel.endswith(".py") else []
                continue
            found += [
                f"{rel}:{number}: {line.strip()}"
                for number, line in enumerate(text.split("\n"), 1)
                if re.search(self.finds, line) and line.strip() not in self.allowed
            ]
        return found

    def plant(self, planted: str | tuple[str, str]) -> list[tuple[str, str]]:
        home = self.paths.split()[0] if self.paths else "planted.py"
        return [planted if isinstance(planted, tuple) else (home, planted)]


#: Rule name (DESIGN.md cites it) -> its row.
RULES = {
    "No second way to advance a query": Rule(
        "§6",
        r"_bundle_in|_bundle_out|_injected_result|prime_result|\b_ctx\b|PHASES|_phase_"
        r"|_BatchedProbes|fault_surface|cache_backend|_STORAGE_BACKENDS|make_cache"
        r'|\b_BACKENDS\b|"array" if lockstep',
        flags=("self._ctx = ctx", 'cache = make_cache("array" if lockstep else "dict")'),
        spares=("ctx = self._ctx_pool.pop()", "backends = _BACKENDS_SEEN"),
    ),
    "No per-query loop back on the prediction path": Rule(
        "§11",
        r"buckets\.setdefault|_build_graph\(|def _memory_bytes|_incremental_regions",
        flags=("buckets.setdefault(key, []).append(i)", "graph = self._build_graph(region)"),
    ),
    "No built-but-disabled layer, no gate to prove it free": Rule(
        "§6.3",
        r"share_plans|_k == 1|fault_layer_overhead|storage_tiers_overhead"
        r"|sharded_routing_overhead|bench_fault_overhead",
        flags=("def run(self, share_plans=True):", "if self._k == 1:"),
    ),
    "No second write path, schema or panel table in the sweep plane": Rule(
        "§6.2",
        r"async_writes|_AsyncWriter|_LOADABLE_SCHEMAS|def fig13_axes|progress=",
        flags=("self._writer = _AsyncWriter(path)", "runner.run(cells, progress=print)"),
    ),
    "No writer thread or queue in the result store": Rule(
        "§6.2",
        r"^(import|from) (threading|queue)\b",
        "sim/results.py",
        flags=("import threading", "from queue import SimpleQueue"),
        spares=("import queue_tools",),
    ),
    "No per-batch numpy routing in the sharded cache": Rule(
        "§10",
        r"np\.unique\(routed\)|np\.all\(routed"
        r"|np\.searchsorted\(self\._splits, self\._page_keys\[pages\]",
        "storage/sharded.py",
        flags=("owners = np.unique(routed)", "ok = np.all(routed == owner)"),
    ),
    "No OrderedDict on the tier structures": Rule(
        "§9",
        r"\bOrderedDict\b|\.move_to_end\(|popitem\(last=False\)",
        "storage/tiered.py",
        flags=(
            "self._tier: OrderedDict[int, None] = OrderedDict()",
            "tier.move_to_end(page)",
            "return [lru.popitem(last=False)[0] for _ in range(excess)]",
        ),
        spares=(
            "from collections import defaultdict",
            "# a pop, then a set: the plain dict's move_to_end",
            "newest = lru.popitem()",
        ),
    ),
    "No second tick": Rule(
        "§6.1, §8",
        r"\.step_query(_replay)?\(|\.fill_ahead\(|resolve_ahead",
        "serve/daemon.py",
        flags=(
            "record = session.step_query()",
            "record = session.step_query_replay(tape[session.query_index])",
            "work = session.fill_ahead(result)",
            "resolve_ahead(self.index, streams)",
        ),
        spares=(
            "records = step_tick(self.index, [state.session for state in tick])",
            "from repro.sim.serve import plans_shareable, step_tick",
        ),
    ),
    "One layer rule": Rule(
        "§6.3",
        r"\b(FaultPlan|StorageSpec|ShardSpec)\(",
        "serve/daemon.py",
        flags=(
            "faults = FaultPlan(transient_rate=config.fault_rate, seed=config.seed)",
            "storage = StorageSpec(backend=config.storage, tier_pages=config.tier_pages)",
            "shards = ShardSpec(n_shards=config.shards, partition=config.partition)",
        ),
        spares=(
            "from repro.storage.tiered import StorageSpec, TieredStore",
            "spec = self.config.sim.shards or ShardSpec",
            "self.cache = config.sim.build_cache(self.index)",
            "plan = MyFaultPlan(rate)",
        ),
        # A report reads a missing spec as the default one; that decides no layer.
        allowed=(
            "spec = self.config.sim.storage or StorageSpec()",
            "spec = self.config.sim.shards or ShardSpec()",
        ),
    ),
    "One results source": Rule(
        "§6.1, §8",
        r"\.query_many\(",
        "sim serve",
        flags=(
            "bundles = [s.fill_ahead(result)"
            " for s, result in zip(untaped, index.query_many(bounds))]",
            ("serve/daemon.py", "results = self.index.query_many(bounds)"),
        ),
        spares=(
            "results = {key: walk_results(self.index, walk) for key, walk in walks.items()}",
            "fetch = SpatialIndex.query_many",
        ),
        allowed=("return index.query_many([query.bounds for query in sequence.queries])",),
    ),
    "No third lockstep branch": Rule(
        "§6.1", "group_size", "sim/serve.py", flags=("for group_size in sizes:",)
    ),
    "No numpy on the replay step": Rule(
        "§6.1",
        r"np\.count_nonzero\(|pages\[~hit_mask\]|_ProbeCursor",
        "sim/engine.py",
        flags=("hits = np.count_nonzero(hit_mask)", "misses = pages[~hit_mask]"),
    ),
    "No array scatter in the sharded fan-out": Rule(
        "§10", r"np\.empty\(len\(pages\)", "storage/sharded.py", flags=("np.empty(len(pages))",)
    ),
    "No per-client mirror of a layer counter": Rule(
        "§6, §9, §10",
        r"_tier_mark|_tier_collect|def snapshot|mine\.tier_|mine\.shard_hop_seconds",
        "sim/engine.py storage/tiered.py",
        flags=("mine.tier_hits += 1", ("storage/tiered.py", "    def snapshot(self):")),
    ),
    "No second plan-sharing mechanism": Rule(
        "§6.1, §8",
        r"_begin_lifetime|leader_of|\.recording\b",
        flags=("if session.recording:", "leader = leader_of[key]"),
        spares=("tapes = session.recordings",),
    ),
    "No unreached index, file format or disk-model fork": Rule(
        "§1, §2, §7",
        r"_build_adjacency|crawl_pages|ordered_pages|seed_page|leaf_page_for_point|GridIndex"
        r"|gridindex|save_dataset|load_dataset|stuck_rate|sequential_discount|_last_page"
        r"|estimate_read_time|merged_with",
        flags=("index = GridIndex(dataset)", "save_dataset(dataset, path)"),
    ),
    "No per-step scalar walk in sequence generation": Rule(
        "§12",
        r"point_at\(",
        "workload/sequence.py",
        flags=("center = line.point_at(s)",),
        spares=("centers = line.points_at(s)",),
    ),
    "No per-step loop back in the tree generator": Rule(
        "§13",
        r"def _perturb|def _unit\(|def _rotate_towards|def _random_perpendicular",
        "datagen/branching.py",
        flags=("def _perturb(direction, rng):", "def _unit(v):"),
        spares=("def _unit_rows(v):",),
    ),
    "No BLAS on a content path": Rule(
        "§14",
        r"np\.linalg\.|np\.dot\(|np\.matmul\(|einsum\(|polyfit| @ ",
        flags=("n = np.linalg.norm(v)", "d = a @ b", "coeffs = np.polyfit(t, x, 2)"),
        spares=("_, _, vt = np.linalg.svd(centered, full_matrices=False)", ("util.py", "a @ b")),
        exclude=("util.py",),
        allowed=("_, _, vt = np.linalg.svd(centered, full_matrices=False)",),
    ),
    "No setting only tests turn": Rule(
        "§2, §7, §9, §10",
        r"\b(?:DiskParameters|latency_factor|backoff_base_s|backoff_cap_s|victim_entries"
        r"|miss_entries|stream_depth|rebalance_lambda|rebalance_threshold|hilbert_bits"
        r"|zipf_s|query_volume|make_storage|max_backoff_s|rng_seed|reset_on_no_match"
        r"|charge_prediction_cost|match_distance_factor|max_prefetch_locations"
        r"|gap_io_budget_fraction|target_density|n_highways|segments_per_road"
        r"|drop_probability|cells_per_axis|n_prefetch_cells|max_iterations|on_mean_s"
        r"|off_mean_s|connect_timeout|include_diagonal|LayeredPrefetcher|fill_stall_s"
        r"|hop_latency_s|incremental_advance_fraction|branch_id_offset)\b",
        flags=(
            "latency_factor = 2.0",
            "class LayeredPrefetcher(Prefetcher):",
            "    fill_stall_s: float = 0.0",
            "self.hop_seconds += extra * self.spec.hop_latency_s",
        ),
        spares=(
            "fig17_query_volume = 24",
            "    stall_seconds: float = 0.0",
            "        self.hop_seconds = 0.0",
            "            advanced += region_side * INCREMENTAL_ADVANCE_FRACTION",
        ),
    ),
    "No retired timing harness": Rule(
        "§4",
        _retired_imports,
        flags=("import repro.perf", "from pytest_benchmark.fixture import BenchmarkFixture"),
        spares=("from time import perf_counter",),
    ),
    "No oracle in the package": Rule(
        "§1, §6",
        _oracle_names,
        flags=(
            "def region_crossings_reference(dataset, ids, region): ...",
            "class Tree:\n    def reset_stats(self): ...",
            "from repro.index.scalar_ref import ScalarSTRTree",
            "grid.flat_id((0, 0, 0))",
            "from repro.storage.cache import ArrayCache",
            "class Simulator:\n    def _run_round_robin(self, clients, sessions): ...",
            "from tests.oracles.serving import RoundRobinSimulator",
        ),
        spares=(
            ("storage/cache.py", "class ArrayCache: ..."),
            "name = 'flat_id'",
            'raise TypeError("the reference is tests.oracles.serving.RoundRobinSimulator")',
        ),
    ),
    "One descent": Rule(
        "§11",
        r"\bfrontier\s*=|\bfrontier\[|_levels\[0\]\.children",
        "index/rtree.py",
        flags=(
            "frontier = self._levels[0].children",
            "survivors = frontier[hit]",
            "node = np.tile(self._levels[0].children, n_regions)",
        ),
        spares=(
            "top = self._levels[0].children",
            "return self._descend(region.lo[None], region.hi[None])[0]",
            "The frontier is a set of (node, region) pairs; every level",
        ),
        allowed=("top = self._levels[0].children",),
    ),
    "No boolean row reduction": Rule(
        "§11",
        _row_reductions,
        flags=(
            "mask = np.all((lo <= qhi) & (hi >= qlo), axis=1)",
            "ok = ~bad.any(axis=1)",
            "hit = ((lo <= qhi) & (hi >= qlo)).all(axis=-1)",
            "ok = np.any(bad, 1)",
            "ok = bad.all(1)",
            "from numpy import all\nok = all(bad, axis=1)",
        ),
        spares=(
            "ok = bad.all()",
            "ok = np.all(bad, axis=0)",
            "ok = all(x > 0 for x in xs)",
            "ok = any([a, b])",
            "t0 = spans.max(axis=1)",
        ),
    ),
}


def _package_files() -> list[tuple[str, str]]:
    return [
        (path.relative_to(PACKAGE).as_posix(), path.read_text(errors="replace"))
        for path in sorted(PACKAGE.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    ]


@pytest.mark.parametrize("name", RULES)
def test_the_tree_obeys_every_rule(name):
    rule = RULES[name]
    assert rule.flags, "a rule with no counterexample is not proven to fire"
    assert not rule.check(_package_files()), f"see DESIGN.md {rule.design}"


@pytest.mark.parametrize(
    "name, planted, flagged",
    [
        pytest.param(name, planted, flagged, id=f"{name}-{verb}-{i}")
        for name, rule in RULES.items()
        for verb, flagged, cases in (("flags", True, rule.flags), ("spares", False, rule.spares))
        for i, planted in enumerate(cases)
    ],
)
def test_every_rule_flags_its_counterexamples_and_spares_its_near_misses(name, planted, flagged):
    rule = RULES[name]
    assert bool(rule.check(rule.plant(planted))) is flagged


def test_ci_greps_no_source():
    ci = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
    greps = [
        f"ci.yml:{number}: {line.strip()}"
        for number, line in enumerate(ci.read_text().split("\n"), 1)
        if "grep" in line and "src/" in line
    ]
    assert not greps, f"a source check belongs in RULES: {greps}"


def test_ci_starts_entry_points_only_through_the_reach_driver():
    """One run of each entry point, checked in ``tests/reach/drive.py``
    (``nightly-bench.yml``, the benchmark's trajectory, is not CI)."""
    ci = Path(__file__).parents[1] / ".github" / "workflows" / "ci.yml"
    starts = [
        f"ci.yml:{number}: {line.strip()}"
        for number, line in enumerate(ci.read_text().split("\n"), 1)
        if "repro.cli" in line or "e2e_bench.py" in line
    ]
    assert not starts, f"an entry point run belongs in tests/reach/drive.py: {starts}"
    assert "python -m tests.reach.drive" in ci.read_text()


#: Keywords only tests ever passed, by the callable that took them.
REMOVED_KEYWORDS = {
    ScoutConfig: (
        "max_prefetch_locations",
        "match_distance_factor",
        "reset_on_no_match",
        "charge_prediction_cost",
        "gap_io_budget_fraction",
        "rng_seed",
    ),
    CandidateTracker: ("config",),
    make_neuron_tissue: ("config", "target_density"),
    make_arterial_tree: ("config", "n_trees", "extent"),
    make_lung_airways: ("config",),
    make_road_network: ("spacing", "drop_probability", "n_highways", "segments_per_road"),
    HilbertPrefetcher: ("cells_per_axis", "n_prefetch_cells"),
    VelocityPrefetcher: ("window",),
    kmeans: ("max_iterations",),
    Frustum.from_volume: ("taper",),
    bursty_arrivals: ("on_mean_s", "off_mean_s"),
    run_loadgen: ("connect_timeout",),
    QuerySession.step_query: ("result",),
    StorageSpec: ("fill_stall_s",),
    ShardSpec: ("hop_latency_s",),
    SimulationConfig: ("incremental_advance_fraction",),
    TieredStore: ("page_table",),
    grow_tree: ("branch_id_offset",),
}


@pytest.mark.parametrize(
    "target, keyword",
    [
        pytest.param(target, keyword, id=f"{target.__qualname__}-{keyword}")
        for target, keywords in REMOVED_KEYWORDS.items()
        for keyword in keywords
    ],
)
def test_setting_only_tests_set_is_gone(target, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        inspect.signature(target).bind_partial(**{keyword: None})


#: Constructors that take no optional argument: their defaults were set
#: only by tests.
NO_OPTIONAL_ARGUMENT = (TieredStore, FaultyDiskModel)


@pytest.mark.parametrize("target", NO_OPTIONAL_ARGUMENT, ids=lambda target: target.__qualname__)
def test_no_optional_argument(target):
    parameters = inspect.signature(target).parameters.values()
    assert [p.name for p in parameters if p.default is not p.empty] == []


#: Every settable field of the layer specs, the engine config and the
#: daemon config (which takes its layers as one engine config), in order.
SPEC_FIELDS = {
    StorageSpec: ("backend", "miss_path", "tier_pages", "path"),
    ShardSpec: ("n_shards", "partition", "shard_cache_pages", "rebalance", "rebalance_interval"),
    DaemonConfig: (
        "host",
        "port",
        "n_neurons",
        "seed",
        "prefetcher",
        "session_pool",
        "queries_per_session",
        "mode",
        "max_queue",
        "report_interval",
        "report_path",
        "sim",
    ),
    SimulationConfig: (
        "cache_capacity_pages",
        "incremental_start_fraction",
        "incremental_growth",
        "incremental_max_fraction",
        "incremental_max_steps",
        "faults",
        "storage",
        "shards",
    ),
}


@pytest.mark.parametrize("spec", SPEC_FIELDS, ids=lambda spec: spec.__qualname__)
def test_spec_fields_are_pinned(spec):
    assert tuple(field.name for field in fields(spec)) == SPEC_FIELDS[spec]
