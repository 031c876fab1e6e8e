"""Property tests for :meth:`ResultStore.compact`.

The contract, checked over arbitrary interleavings of ok / failed /
corrupt / stale store lines (hypothesis generates the interleavings):

* the loaded view is unchanged -- ``load()`` before and after compaction
  agree record for record, so compaction can never drop an ``ok`` cell
  (or a failure envelope, which a resume still owes a retry);
* compaction is idempotent -- a second pass keeps every record and
  reclaims zero bytes;
* the byte accounting is honest -- reclaimed = before - after, and the
  rewritten file holds exactly the kept records.  Reclaimed is >= 0:
  a kept record is rewritten byte for byte (only schema-2 lines load;
  anything else is dropped as stale), so no line can grow.
"""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.metrics import AggregateMetrics
from repro.sim.results import CellResult, ResultStore, cell_key

#: Line kinds a long-lived store accumulates.
_KINDS = ("ok", "failed", "corrupt", "stale")


def _spec(i: int) -> dict:
    """A tiny distinct-but-valid cell-spec dict (never executed).

    Odd ``i`` adds a tiered-storage mapping, so the compaction
    properties also hold over stores whose cells carry the additive
    storage keys (spec ``storage`` + tier metrics).
    """
    spec = {
        "dataset": {"kind": "neuron", "params": {"n_neurons": 4, "seed": i}},
        "index": {"kind": "flat", "params": {"fanout": 16}},
        "workload": {
            "n_sequences": 2,
            "n_queries": 5,
            "volume": 20_000.0,
            "gap": 0.0,
            "aspect": "cube",
            "window_ratio": 1.0,
        },
        "prefetcher": {"kind": "none", "params": {}},
        "seed": i,
        "sim": {},
    }
    if i % 2:
        spec["storage"] = {"miss_path": "combined", "tier_pages": 4}
    return spec


def _metrics(i: int) -> AggregateMetrics:
    tiers = (
        dict(tier_hits=3 * i, miss_path_hits=i, tier_fills=5 + i) if i % 2 else {}
    )
    return AggregateMetrics(
        n_sequences=2,
        cache_hit_rate=(i % 10) / 10.0,
        hit_rate_std=0.01 * i,
        speedup=1.0 + i,
        response_seconds=0.5,
        cold_seconds=1.5,
        graph_build_seconds=0.1,
        prediction_seconds=0.2,
        per_sequence_hit_rates=[0.25, (i % 10) / 10.0],
        **tiers,
    )


def _line(kind: str, i: int) -> str:
    spec = _spec(i)
    if kind == "ok":
        result = CellResult(key=cell_key(spec), spec=spec, metrics=_metrics(i))
        return json.dumps(result.to_record())
    if kind == "failed":
        result = CellResult(
            key=cell_key(spec), spec=spec, metrics=None, status="failed",
            attempts=2, error="injected",
        )
        return json.dumps(result.to_record())
    if kind == "corrupt":
        if i % 2:
            return "{ not json at all"
        # Intact JSON whose spec no longer matches its content hash.
        result = CellResult(key=cell_key(spec), spec=spec, metrics=_metrics(i))
        record = result.to_record()
        record["key"] = "0" * 64
        return json.dumps(record)
    # Stale: a record written by some other code revision.
    result = CellResult(key=cell_key(spec), spec=spec, metrics=_metrics(i))
    record = result.to_record()
    record["schema"] = 999
    return json.dumps(record)


lines_strategy = st.lists(
    st.tuples(st.sampled_from(_KINDS), st.integers(min_value=0, max_value=4)),
    max_size=25,
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=lines_strategy)
def test_compact_preserves_the_loaded_view(tmp_path, lines):
    path = tmp_path / "store.jsonl"
    path.write_text("".join(_line(kind, i) + "\n" for kind, i in lines))

    before_store = ResultStore(path)
    before = {key: result.to_record() for key, result in before_store.load().items()}
    ok_before = {key for key, record in before.items() if record["status"] == "ok"}

    report = before_store.compact()
    after_store = ResultStore(path)
    after = {key: result.to_record() for key, result in after_store.load().items()}

    assert after == before
    assert ok_before <= set(after)  # no ok record is ever dropped
    assert report.n_kept == len(before)
    assert after_store.n_corrupt == 0 and after_store.n_stale == 0


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=lines_strategy)
def test_compact_is_idempotent(tmp_path, lines):
    path = tmp_path / "store.jsonl"
    path.write_text("".join(_line(kind, i) + "\n" for kind, i in lines))

    ResultStore(path).compact()
    once = path.read_bytes()
    second = ResultStore(path).compact()
    assert path.read_bytes() == once
    assert second.reclaimed_bytes == 0
    assert second.n_corrupt == second.n_stale == second.n_superseded == 0


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=lines_strategy)
def test_compact_byte_accounting_is_honest(tmp_path, lines):
    path = tmp_path / "store.jsonl"
    path.write_text("".join(_line(kind, i) + "\n" for kind, i in lines))
    bytes_before = path.stat().st_size

    store = ResultStore(path)
    report = store.compact()

    assert report.bytes_before == bytes_before
    assert report.bytes_after == path.stat().st_size
    assert report.reclaimed_bytes == bytes_before - report.bytes_after >= 0
    assert report.n_kept + report.n_corrupt + report.n_stale + report.n_superseded == len(lines)
    kept_lines = [line for line in path.read_text().splitlines() if line]
    assert len(kept_lines) == report.n_kept
