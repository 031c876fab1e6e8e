"""Figure 12: accuracy and speedup on the with-gap microbenchmarks.

Adds SCOUT-OPT to the comparison.  Expected shape: SCOUT only modestly
above the trajectory baselines (with gaps it too falls back to linear
extrapolation), while SCOUT-OPT's index-assisted gap traversal puts it
clearly on top.
"""

import pytest

from repro.analysis import ResultTable
from repro.workload import MICROBENCHMARKS, microbenchmark_names

from helpers import hit_pct, n_sequences, run, scout_opt, standard_prefetchers

BENCHES = microbenchmark_names(with_gaps=True)


def _grid(tissue, tissue_index):
    hit = ResultTable("Fig 12 -- cache hit rate with gaps [%]", BENCHES, figure_id="fig12")
    speed = ResultTable("Fig 12 -- speedup with gaps", BENCHES, precision=2)
    prefetchers = standard_prefetchers(tissue, tissue_index)
    prefetchers["scout-opt"] = scout_opt(tissue, tissue_index)
    results = {}
    for name, prefetcher in prefetchers.items():
        hits, speeds = [], []
        for bench in BENCHES:
            spec = MICROBENCHMARKS[bench]
            sequences = spec.generate(tissue, n_sequences(), seed=12)
            result = run(tissue_index, sequences, prefetcher)
            hits.append(hit_pct(result))
            speeds.append(result.speedup)
        hit.add_row(name, hits)
        speed.add_row(name, speeds)
        results[name] = (hits, speeds)
    hit.print()
    speed.print()
    return results


def test_fig12_gap_benchmarks(tissue, tissue_index):
    results = _grid(tissue, tissue_index)
    scout_hits, _ = results["scout"]
    opt_hits, opt_speeds = results["scout-opt"]
    # SCOUT-OPT dominates SCOUT on every gap benchmark.
    assert all(o >= s - 1.0 for o, s in zip(opt_hits, scout_hits))
    assert sum(opt_hits) > sum(scout_hits)
    # And it beats every baseline.
    for other in ("ewma-0.3", "straight-line", "hilbert"):
        other_hits, _ = results[other]
        assert sum(opt_hits) > sum(other_hits), other
