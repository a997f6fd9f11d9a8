"""One benchmark sample: build a workload's test, explore it once, report.

Run by ``run.py`` in a fresh interpreter per sample, so every sample pays the
same cold start a user's run does and its peak memory and CPU time are its
own.  Writes one JSON object to ``--result``:

* ``setup_s``: seconds of a cold set-up -- importing ``repro`` and the first
  ``resolve_test``, which loads the spec registry and then parses, compiles
  and models the environment of the test (with ``--setup-only`` the sample
  stops here);
* ``explore_s``: wall seconds of ``test.run(...)``;
* ``cpu_s``: user + system seconds of this process and its reaped workers
  during the run; ``maxrss_kb``: this process's peak resident set;
* ``first_bug_s``: seconds from the start of the run until the first test
  case carrying an error was generated (None when no bug was seen here);
* ``observed``: the output identity compared against expected.json;
* with ``--trace 1``, ``layers``: the per-layer metrics of this run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, observe  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _worker_totals(worker_dir: str):
    summed = {"calls": {}, "total_s": {}, "self_s": {}, "measured": {}}
    for entry in sorted(os.listdir(worker_dir)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(worker_dir, entry)) as handle:
            totals = json.load(handle)
        for table, values in summed.items():
            for name, value in totals[table].items():
                values[name] = values.get(name, 0) + value
    return summed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    started = time.perf_counter()
    from repro.distrib import specs
    test = specs.resolve_test(workload.spec, **workload.params)
    setup_s = time.perf_counter() - started
    if args.setup_only:
        with open(args.result, "w") as out:
            json.dump({"setup_s": setup_s}, out)
        return

    from repro.distrib import cluster as distrib_cluster
    from repro.engine import executor
    from repro.engine.strategies import make_strategy

    options = dict(workload.options)
    if workload.backend == "single":
        # The cluster and process backends seed each worker's strategy by
        # its worker id inside the program; only here does the seed reach it.
        options["strategy"] = make_strategy(test.strategy, seed=args.seed,
                                            program=test.program)
    checkpoint_path = os.path.join(args.out_dir, "checkpoint.json")
    if "checkpoint_every" in options:
        options["checkpoint_path"] = checkpoint_path
    recorder = spans.SpanRecorder()
    worker_dir = os.path.join(args.out_dir, "workers")
    workers_traced = False
    if args.trace:
        os.makedirs(worker_dir, exist_ok=True)
        workers_traced = spans.install(recorder, worker_dir)
    first_bug = spans.watch_first_bug(executor)

    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    result = test.run(backend=workload.backend, **options)
    explore_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu_before
    if "checkpoint_path" in options:
        os.remove(checkpoint_path)

    record = {
        "setup_s": setup_s,
        "explore_s": explore_s,
        "useful_instructions": result.useful_instructions,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "first_bug_s": first_bug[0] - started if first_bug else None,
        "observed": observe(result),
        "start_method": distrib_cluster.default_start_method(),
    }
    if args.trace:
        workers = None
        if workload.backend == "process" and workers_traced:
            workers = _worker_totals(worker_dir)
        record["layers"] = metrics.layer_metrics(
            result, recorder.totals(), workers, explore_s, workload.backend)
        recorder.write_spans(os.path.join(args.out_dir, "spans.tsv"))
    with open(args.result, "w") as out:
        json.dump(record, out)


if __name__ == "__main__":
    main()
