"""Every paper figure the registry holds keeps the paper's shape.

Each case runs the documented command -- ``scout-repro sweep --figure F``
at bench scale -- through :func:`repro.cli.main` and requires the
``shape: holds`` verdict under every rendered group.  The assertions
themselves live on the :class:`~repro.workload.figures.Figure` entries
(DESIGN.md §4), so what is checked here is what the command ships.
"""

import pytest

from repro.cli import main

#: ``--figure`` value -> (bench-scale flags, rendered groups).  The paper
#: runs 30-50 sequences per cell on an 80-neuron-equivalent tissue; these
#: sizes keep tier 1 laptop-sized while the shapes stay stable at page
#: granularity.
BENCH_SCALE = {
    "3": (["--neurons", "60", "--sequences", "6"], 1),
    "11": (["--neurons", "60", "--sequences", "6"], 1),
    "12": (["--neurons", "60", "--sequences", "6"], 1),
    "13": (["--neurons", "60", "--sequences", "6"], 6),
    "14": (["--sequences", "3"], 1),
    "17": (["--sequences", "3"], 2),
}


@pytest.mark.parametrize("figure", list(BENCH_SCALE))
def test_figure_keeps_the_papers_shape(figure, capsys, tmp_path):
    flags, n_groups = BENCH_SCALE[figure]
    out = str(tmp_path / f"fig{figure}.jsonl")
    assert main(["sweep", "--figure", figure, *flags, "--out", out]) == 0
    printed = capsys.readouterr().out
    print(printed)  # the rendered tables, for ``pytest -s`` readers
    verdicts = [line for line in printed.splitlines() if line.startswith("shape: ")]
    assert verdicts == ["shape: holds"] * n_groups
    assert "failed 0" in printed
