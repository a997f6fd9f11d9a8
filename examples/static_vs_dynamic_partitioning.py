#!/usr/bin/env python3
"""Why Cloud9 balances load dynamically (paper §2, §7.4).

This example runs the same exhaustive symbolic test -- the printf
format-string workload of Fig. 8 -- on two parallel configurations:

* a Cloud9 cluster with dynamic partitioning and load balancing, and
* a static partitioning of the execution tree (the strawman the paper argues
  against: split once, never rebalance).  It is the same coordinator with
  one difference in seeding and one in balancing: a breadth-first split in
  the coordinator deals one prefix per worker, and no job ever moves
  afterwards.  Both runs share the coverage overlay, so only where the work
  goes differs.

It then prints the per-round queue lengths of both runs so the imbalance is
visible directly: under static partitioning some workers drain their subtree
early and idle, while one worker grinds through the heaviest partition alone.

Run with:  python examples/static_vs_dynamic_partitioning.py
"""

from repro.targets import printf

WORKERS = 4
INSTRUCTIONS_PER_ROUND = 200


def queue_picture(result, label: str) -> None:
    print("--- %s ---" % label)
    print("rounds to exhaustion: %d   paths: %d   useful instructions: %d"
          % (result.rounds_executed, result.paths_completed,
             result.useful_instructions))
    print("round  " + "  ".join("w%d" % w for w in sorted(
        result.timeline.snapshots[0].queue_lengths)) + "   (candidate states per worker)")
    for snap in result.timeline.snapshots:
        lengths = [snap.queue_lengths[w] for w in sorted(snap.queue_lengths)]
        marker = "  <- idle worker(s)" if 0 in lengths and max(lengths) > 1 else ""
        print("%5d  %s%s" % (snap.round_index,
                             "  ".join("%2d" % l for l in lengths), marker))
    print()


def main() -> None:
    test = printf.make_symbolic_test(format_length=3)

    # Same test, two backends -- only the backend name changes.
    dynamic = test.run(backend="cluster", workers=WORKERS,
                       instructions_per_round=INSTRUCTIONS_PER_ROUND,
                       balance_interval=2)
    static = test.run(backend="static", workers=WORKERS,
                      instructions_per_round=INSTRUCTIONS_PER_ROUND)

    queue_picture(dynamic, "dynamic partitioning (Cloud9)")
    queue_picture(static, "static partitioning (no load balancing)")

    speedup = static.rounds_executed / max(dynamic.rounds_executed, 1)
    print("Dynamic balancing finished the exhaustive test %.1fx faster "
          "(in virtual rounds) than the static split." % speedup)


if __name__ == "__main__":
    main()
