"""Run one benchmark workload for a fixed time; print its metrics as JSON.

    python3 perfbench/run.py --workload udp-hang-single --seed 1 --seconds 40 --trace 0

Each sample is one complete exhaustive exploration in a fresh interpreter
(``sample.py``).  Samples repeat while the next one is expected to finish
within ``--seconds``; at least one always runs.  Every sample's output is
checked against ``expected.json``; a sample that raises, times out or fails
the check counts as failed and the run goes on.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run also explores once untraced, to measure the trace overhead.

``--workload all`` runs every workload in turn; ``--pin`` re-pins
``expected.json`` from one untraced sample of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import metrics
from workloads import EXPECTED_PATH, WORKLOADS, check, load_expected

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
#: Every run must end within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
POLL_S = 0.1
#: Set-up-only samples per untraced run, on top of each sample's own set-up.
SETUP_PROBES = 4


def _children(pid: int) -> List[int]:
    try:
        with open("/proc/%d/task/%d/children" % (pid, pid)) as handle:
            return [int(child) for child in handle.read().split()]
    except OSError:
        return []


def _peak_kb(pid: int) -> int:
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_sample(workload: str, seed: int, trace: int, out_dir: str,
               timeout: float, setup_only: bool = False) -> Dict[str, object]:
    """One sample in a child interpreter.

    Returns its record, or ``{"error": reason}``.  While it runs, the peak
    resident set of each of its worker processes is polled from /proc, so
    ``worker_peak_kb`` covers processes the sample does not outlive.
    """
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "sample.json")
    command = [sys.executable, os.path.join(HERE, "sample.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out-dir", out_dir,
               "--result", result_path] + (["--setup-only"] if setup_only else [])
    worker_peaks: Dict[int, int] = {}
    deadline = time.monotonic() + timeout
    process = subprocess.Popen(command, stdout=sys.stderr.fileno())
    try:
        while True:
            try:
                process.wait(timeout=POLL_S)
                break
            except subprocess.TimeoutExpired:
                for child in _children(process.pid):
                    worker_peaks[child] = max(worker_peaks.get(child, 0),
                                              _peak_kb(child))
                if time.monotonic() > deadline:
                    return {"error": "timed out after %.0f s" % timeout}
    finally:
        if process.poll() is None:
            for child in _children(process.pid):
                try:
                    os.kill(child, signal.SIGKILL)
                except OSError:
                    pass
            process.kill()
            process.wait()
    if process.returncode != 0:
        return {"error": "exited with code %d" % process.returncode}
    with open(result_path) as handle:
        record = json.load(handle)
    record["worker_peak_kb"] = sum(worker_peaks.values())
    return record


def end_to_end(samples: List[dict], setups: List[float]) -> Dict[str, List[float]]:
    """Per-sample values of every end-to-end metric; ``setups`` are the
    set-up times of the run's set-up-only samples."""
    values: Dict[str, List[float]] = {name: [] for name in metrics.END_TO_END}
    values["setup_s"].extend(setups)
    for sample in samples:
        explore_s = sample["explore_s"]
        values["explore_s"].append(explore_s)
        values["useful_ips"].append(sample["useful_instructions"] / explore_s)
        # No bug exists on three of the workloads: there the run's bug
        # verdict arrives when exhaustion proves the program bug-free.
        first_bug = sample["first_bug_s"]
        values["first_bug_s"].append(explore_s if first_bug is None else first_bug)
        values["setup_s"].append(sample["setup_s"])
        values["cpu_s"].append(sample["cpu_s"])
        values["peak_rss_mb"].append(
            (sample["maxrss_kb"] + sample["worker_peak_kb"]) / 1024.0)
    return values


def per_layer(untraced: List[dict], traced: List[dict]) -> Dict[str, List[float]]:
    values: Dict[str, List[float]] = {}
    for sample in traced:
        for name, value in sample["layers"].items():
            values.setdefault(name, []).append(value)
    if untraced and traced:
        reference = statistics.median(s["explore_s"] for s in untraced)
        values["trace_overhead"] = [
            statistics.median(s["explore_s"] for s in traced) / reference - 1.0]
    return values


def provenance(seed: int, samples: List[dict]) -> Dict[str, object]:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "start_method": samples[0]["start_method"] if samples else "unknown",
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the enclosing git checkout, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 expected: Dict[str, dict]) -> Dict[str, object]:
    """Samples of one workload until ``seconds`` is spent; the run's summary."""
    workload = WORKLOADS[name]
    run_dir = os.path.join(OUT_ROOT, "%s-seed%d-trace%d-%d"
                           % (name, seed, trace, os.getpid()))
    started = time.monotonic()
    durations: List[float] = []
    untraced: List[dict] = []
    traced: List[dict] = []
    failures: List[str] = []
    setups: List[float] = []
    for probe in range(0 if trace else SETUP_PROBES):
        record = run_sample(name, seed, 0, os.path.join(run_dir, "setup%d" % probe),
                            RUN_LIMIT_S, setup_only=True)
        if "error" in record:
            failures.append("set-up %d: %s" % (probe, record["error"]))
        else:
            setups.append(record["setup_s"])
    # A traced run also explores once untraced: trace_overhead's base.  It
    # goes first on even seeds and second on odd ones, because the second of
    # two back-to-back explorations tends to read slower on a shared host.
    untraced_slot = seed % 2
    while True:
        sample_trace = 0 if trace and len(durations) == untraced_slot else trace
        remaining = RUN_LIMIT_S - (time.monotonic() - started)
        sample_started = time.monotonic()
        record = run_sample(name, seed, sample_trace,
                            os.path.join(run_dir, "sample%d" % len(durations)),
                            remaining)
        durations.append(time.monotonic() - sample_started)
        problems = ([record["error"]] if "error" in record else
                    check(record["observed"], expected[workload.expect]))
        if problems:
            failures.append("sample %d: %s" % (len(durations) - 1,
                                               "; ".join(problems)))
        else:
            (traced if sample_trace else untraced).append(record)
        elapsed = time.monotonic() - started
        done = not trace or len(durations) > 1
        if "error" in record and record["error"].startswith("timed out"):
            break
        if done and elapsed + statistics.median(durations) > min(seconds, RUN_LIMIT_S):
            break
    values = per_layer(untraced, traced) if trace else end_to_end(untraced, setups)
    summary = {
        "workload": name,
        "trace": trace,
        "attempted": len(durations) + (0 if trace else SETUP_PROBES),
        "failed": len(failures),
        "failures": failures,
        "provenance": provenance(seed, untraced + traced),
        "values": values,
        "samples": untraced + traced,
    }
    os.makedirs(run_dir, exist_ok=True)
    with open(os.path.join(run_dir, "result.json"), "w") as out:
        json.dump(summary, out, indent=1)
    return summary


def report(summary: Dict[str, object]) -> Dict[str, dict]:
    """Print the run's human-readable block; return its JSON metrics."""
    trace = summary["trace"]
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    values: Dict[str, List[float]] = summary["values"]
    print("== %s (%s), %d attempted, %d failed, failed_runs %.3f"
          % (summary["workload"], "traced" if trace else "untraced",
             summary["attempted"], summary["failed"],
             summary["failed"] / summary["attempted"]))
    print("   provenance %s" % json.dumps(summary["provenance"], sort_keys=True))
    for failure in summary["failures"]:
        print("   FAILED %s" % failure)
    out: Dict[str, dict] = {}
    for name, unit in units.items():
        sample = values.get(name)
        if not sample:
            print("   %-26s unavailable" % name)
            continue
        median = statistics.median(sample)
        note = ""
        if name in metrics.DETERMINISTIC and len(sample) > 1:
            note = ("  repeats" if min(sample) == max(sample) else
                    "  SPREAD %g..%g" % (min(sample), max(sample)))
        print("   %-26s %14.6g %-8s max %-12.6g n=%d%s"
              % (name, median, unit, max(sample), len(sample), note))
        out[name] = {"value": median, "unit": unit}
    return out


def pin(seed: int) -> None:
    """Re-pin expected.json from one untraced sample of every workload."""
    pinned: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        record = run_sample(name, seed, 0, os.path.join(OUT_ROOT, "pin-" + name),
                            RUN_LIMIT_S)
        if "error" in record:
            raise SystemExit("%s: %s" % (name, record["error"]))
        observed = {key: record["observed"][key]
                    for key in ("paths", "path_digest", "covered_lines", "bugs")}
        if pinned.setdefault(workload.expect, observed) != observed:
            raise SystemExit("%s disagrees with another workload pinned as %s"
                             % (name, workload.expect))
        print("%s: %d paths, %d bugs" % (name, observed["paths"],
                                         len(observed["bugs"])))
    with open(EXPECTED_PATH, "w") as out:
        out.write("{\n%s\n}\n" % ",\n".join(
            " %s: %s" % (json.dumps(key), json.dumps(value, sort_keys=True))
            for key, value in sorted(pinned.items())))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no program source at %s" % os.path.join(ROOT, "src", "repro"),
              file=sys.stderr)
        return 2
    if args.pin:
        pin(args.seed)
        return 0
    expected = load_expected()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    combined: Dict[str, dict] = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, args.trace, expected)
        attempted += summary["attempted"]
        failed += summary["failed"]
        for metric, value in report(summary).items():
            combined[metric if len(names) == 1 else name + "." + metric] = value
    sys.stdout.flush()
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
