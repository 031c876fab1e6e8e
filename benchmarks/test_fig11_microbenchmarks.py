"""Figure 11: accuracy (a) and speedup (b) on the no-gap microbenchmarks.

Four prefetchers (EWMA 0.3, Straight Line, Hilbert, SCOUT) across the
five no-gap rows of Figure 10.  Expected shape: SCOUT wins every
benchmark; model building (long window) and visualization (long
sequences) are SCOUT's best cells; ad-hoc queries are its weakest.
"""

import pytest

from repro.analysis import ResultTable
from repro.workload import MICROBENCHMARKS, microbenchmark_names

from helpers import hit_pct, n_sequences, run, standard_prefetchers

BENCHES = microbenchmark_names(with_gaps=False)


def _grid(tissue, tissue_index):
    hit = ResultTable("Fig 11a -- cache hit rate [%]", BENCHES, figure_id="fig11a")
    speed = ResultTable(
        "Fig 11b -- speedup vs no prefetching", BENCHES, figure_id="fig11b", precision=2
    )
    results = {}
    for name, prefetcher in standard_prefetchers(tissue, tissue_index).items():
        hits, speeds = [], []
        for bench in BENCHES:
            spec = MICROBENCHMARKS[bench]
            sequences = spec.generate(tissue, n_sequences(), seed=11)
            result = run(tissue_index, sequences, prefetcher)
            hits.append(hit_pct(result))
            speeds.append(result.speedup)
        hit.add_row(name, hits)
        speed.add_row(name, speeds)
        results[name] = (hits, speeds)
    hit.print()
    speed.print()
    return results


def test_fig11_microbenchmarks(tissue, tissue_index):
    results = _grid(tissue, tissue_index)
    scout_hits, scout_speeds = results["scout"]
    # SCOUT wins every no-gap microbenchmark (Fig 11a).
    for other in ("ewma-0.3", "straight-line", "hilbert"):
        other_hits, _ = results[other]
        wins = sum(s >= o for s, o in zip(scout_hits, other_hits))
        assert wins >= len(BENCHES) - 1, (other, scout_hits, other_hits)
    # Accuracy in the paper's band and meaningful speedups (Fig 11b).
    assert min(scout_hits) > 55.0
    assert max(scout_hits) > 85.0
    assert max(scout_speeds) > 5.0
