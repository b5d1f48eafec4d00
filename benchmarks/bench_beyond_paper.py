"""X3 — the 1994 field vs its cyclic successors.

Regenerates the extended small-query disk sweep (adds RPHM / GFIB / EXH
cyclic allocation to the paper's four methods).  Written to
``benchmarks/results/X3.txt``.
"""

from repro.experiments import exp_beyond_paper
from repro.experiments.reporting import render_table

__all__ = ['test_x3_beyond_paper']


def test_x3_beyond_paper(benchmark, save_result):
    result = benchmark.pedantic(
        exp_beyond_paper.run, rounds=3, iterations=1
    )
    save_result("X3", render_table(result))
    # The post-paper schemes dominate the 1994 field on small queries.
    for i in range(len(result.x_values)):
        exh = result.series["cyclic-exh"][i]
        for name in ("dm", "fx-auto", "ecc", "hcam"):
            assert exh <= result.series[name][i] + 1e-9
