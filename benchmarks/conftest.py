"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation (§7).  The workloads are scaled down so the whole harness runs on
a laptop in minutes (the paper used up to 48 EC2 workers for hours); what is
being reproduced is the *shape* of each result -- who wins, how quantities
scale with cluster size, which inputs crash -- not the absolute numbers.
Each module states its own scaling; the repo's gated end-to-end benchmark
and its measurement method are described in perfbench/README.md.

Environment knob: set ``REPRO_BENCH_SCALE=full`` to run the larger variants
(more workers, bigger symbolic inputs).
"""

from __future__ import annotations

import os
from typing import List, Sequence

import pytest


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def worker_counts() -> List[int]:
    """Cluster sizes swept by the scalability benchmarks."""
    if bench_scale() == "full":
        return [1, 2, 4, 8, 12]
    return [1, 2, 4]


def print_table(title: str, header: Sequence[str],
                rows: Sequence[Sequence[object]]) -> None:
    """Render one reproduced table/figure as text (captured into bench output)."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)
    widths = [max(len(str(header[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(header))]
    print("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    for row in rows:
        print("  ".join(str(cell).ljust(widths[i]) for i, cell in enumerate(row)))
    print()


def run_once(benchmark, func):
    """Run an expensive experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
