#!/usr/bin/env python
"""Regenerate the full experiment report (every table/figure) to a file.

Usage::

    python scripts/generate_report.py [output-path]

Default output: ``benchmarks/results_full_report.txt`` (the file the
numbers in EXPERIMENTS.md are quoted from).  The run is deterministic;
re-running reproduces the committed report bit for bit.
Allocation-cache hit/miss counters go to stderr so they never perturb
the report body.
"""

import argparse
import pathlib
import sys
import time

__all__ = ['DEFAULT_TARGET', 'main']

DEFAULT_TARGET = (
    pathlib.Path(__file__).parent.parent
    / "benchmarks"
    / "results_full_report.txt"
)


def main() -> int:
    from repro.core.cache import global_cache
    from repro.experiments import exp_growth, runner

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "output", nargs="?", default=str(DEFAULT_TARGET),
        help="report destination (default: %(default)s)",
    )
    args = parser.parse_args()

    target = pathlib.Path(args.output)
    started = time.time()
    results = runner.run_all(quick=False)
    report = runner.render_all(results)
    growth = exp_growth.render(exp_growth.run())
    text = report + "\n\n" + growth + "\n"
    target.write_text(text)
    print(text)
    print(global_cache().stats().render(), file=sys.stderr)
    print(
        f"[report written to {target} in {time.time() - started:.1f}s]",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
