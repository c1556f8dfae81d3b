#!/usr/bin/env python3
"""End-to-end benchmark of the library's three user-facing calls.

Run from the repository root::

    python3 perfbench/run.py --workload fleet-benign --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the same
calls through timing proxies and prints the per-layer split instead.  Both
print a human-readable table and then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` runs every
workload at a tiny size in both modes and checks the printed names and
units against ``BENCHMARK.json`` and that no output check failed.

End-to-end metrics (every workload prints all of them):

* ``setup_s`` — median wall time of fresh processes that import the
  library, build the case study, detector bank and recorded inputs and make
  one warm-up call (the warm-up pays the fused-probe cache and BLAS start).
* ``call_s`` — time of one whole call, the median of the run's calls:
  ``run_pipeline`` (synth-vsc), ``run_fleet`` (fleet-*), or one replay of
  the recorded trace through ``ingest`` (serve-trace).  The table converts
  it to the workload's own headline: ``pipeline_s``, ``fleet_steps_per_s``
  (N*T over the whole call) or ``ingest_samples_per_s``.
* ``peak_rss_mb`` — peak resident memory of the measuring process, read
  before the output checks build their references.

``call_s`` is normalised to a reference host speed: the wall time divided
by how much slower than its reference a fixed calibration kernel, which
does not use the library, ran right before and right after the call (see
:func:`host_slowness`).  On a shared host the same call's wall time swings
by up to 2x for seconds to minutes; the kernel slows with it, so the
normalised time keeps the program's own cost.  The table prints the raw
wall times and the host's slowness next to them.  ``setup_s`` stays raw wall
time: process start-up does not slow with the kernel.

On serve-trace the table also prints ``round_p50_ms`` / ``round_p99_ms``,
the latency of the ``ingest`` call that completes a lockstep round (with
``auto_drain`` it runs the observer, the detectors, alarm emission and log
writes), 1000 per replay.  They are not bounded metrics: a 0.3 ms call
slows by more than the kernel in the host's slow phases, and their
run-to-run spread stays near 0.2.  The traced run reports them as
``serve.round_p50_ms`` / ``serve.round_p99_ms``.

Failed or wrong outputs are the JSON's ``failed`` out of ``attempted``; the
table prints them as ``error_rate``.  Load comes from this one process, with
BLAS pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import os

#: BLAS threads, pinned before numpy loads (at or below nproc on any host).
BLAS_THREADS = 1
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = str(BLAS_THREADS)

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Fresh processes timed for ``setup_s``; the metric is their median.
SETUP_PROCESSES = 3
#: Fewest calls an untraced run makes, however short ``--seconds`` is.
MIN_CALLS = 3
#: Seconds each part of the calibration kernel takes at the reference host
#: speed (a quiet minute on a 2-vCPU Intel Xeon VM); normalised times are
#: wall times at that speed.
CAL_REF_S = {"interpreter": 0.020, "lp": 0.040}

END_TO_END = {
    "setup_s": "s",
    "call_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "synth.solve_s": "s",
    "synth.solves": "count",
    "synth.memo_hits": "count",
    "synth.encode_s": "s",
    "synth.cegis_s": "s",
    "synth.far_gen_s": "s",
    "synth.far_eval_s": "s",
    "synth.far_trials": "count",
    "fleet.rng_s": "s",
    "fleet.draw_s": "s",
    "fleet.kernel_s": "s",
    "fleet.recursion_s": "s",
    "fleet.lanes_s": "s",
    "fleet.bank_s": "s",
    "fleet.other_s": "s",
    "fleet.sink_s": "s",
    "fleet.events": "count",
    "fleet.alarms": "count",
    "serve.push_s": "s",
    "serve.log_s": "s",
    "serve.log_events": "count",
    "serve.observer_s": "s",
    "serve.detect_s": "s",
    "serve.sink_s": "s",
    "serve.events": "count",
    "serve.rounds": "count",
    "serve.alarm_ratio": "ratio",
    "serve.round_p50_ms": "ms",
    "serve.round_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    """Host and build facts recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "python": sys.version.split()[0],
        "git_sha": _git_sha(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_slowness() -> float:
    """Host slowness now: 1 at the reference speed, 2 when twice as slow.

    Times a fixed kernel that uses neither the library nor its inputs, in
    two parts like the timed calls: interpreter work (dict stores of
    tuples) and a small dense LP solved by scipy's HiGHS, the solver the
    synthesis backend drives.  Each part's time over its reference, averaged;
    about 60 ms at the reference speed, long enough to ride out the host's
    brief stalls.
    """
    import numpy as np
    from scipy.optimize import linprog

    from repro.obs.clock import Stopwatch

    grid = np.arange(120 * 60, dtype=float).reshape(120, 60)
    a_ub, b_ub = np.sin(grid * 0.37), 1.0 + np.cos(np.arange(120.0))
    cost = -np.abs(np.cos(np.arange(60.0) * 1.3))
    watch = Stopwatch()
    table = {}
    for index in range(150_000):
        table[index & 1023] = (index, index * 0.5)
    interpreter = watch.elapsed()
    watch = Stopwatch()
    for _ in range(8):
        linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=(-5.0, 5.0), method="highs")
    lp = watch.elapsed()
    return (interpreter / CAL_REF_S["interpreter"] + lp / CAL_REF_S["lp"]) / 2.0


def measure_setup(args, count: int) -> list[float]:
    """Wall time of ``count`` fresh processes that only set the workload up."""
    from repro.obs.clock import Stopwatch

    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-only",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
    ] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(count):
        watch = Stopwatch()
        subprocess.run(command, cwd=ROOT, check=True, capture_output=True, timeout=120)
        times.append(watch.elapsed())
    return times


def run_calls(call, seconds: float, min_calls: int) -> list:
    """Repeat ``call`` until ``seconds`` have passed and ``min_calls`` were made.

    Each call starts from a collected heap and is bracketed by calibration
    runs, which set its ``scale``; neither is inside the call's timing.
    """
    from repro.obs.clock import Stopwatch

    calls = []
    gc.collect()
    before = host_slowness()
    watch = Stopwatch()
    while len(calls) < min_calls or watch.elapsed() < seconds:
        result = call()
        gc.collect()
        after = host_slowness()
        result.scale = 2.0 / (before + after)
        calls.append(result)
        before = after
    return calls


def count_failures(workload, calls) -> list[str]:
    return [reason for reason in (workload.check(c.summary) for c in calls) if reason]


def untraced(workload, args) -> tuple[dict, list, list[str], list[str]]:
    """End-to-end metrics; returns ``(metrics, calls, failures, notes)``."""
    import numpy as np

    setup_times = measure_setup(args, 1 if args.smoke else SETUP_PROCESSES)
    workload.setup(warm=not args.smoke)
    calls = run_calls(workload.call, args.seconds, 1 if args.smoke else MIN_CALLS)
    rss = peak_rss_mb()
    failures = count_failures(workload, calls)
    call_s = statistics.median(c.seconds * c.scale for c in calls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "call_s": call_s,
        "peak_rss_mb": rss,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} fresh processes "
        f"({', '.join(f'{t:.3f}' for t in setup_times)} s)",
        f"call_s: median of {len(calls)} calls; wall median "
        f"{statistics.median(c.seconds for c in calls):.6g} s, fastest "
        f"{min(c.seconds for c in calls):.6g} s",
        f"host slowness (reference = 1): median {statistics.median(1 / c.scale for c in calls):.3f}, "
        f"range {min(1 / c.scale for c in calls):.3f}-{max(1 / c.scale for c in calls):.3f}",
    ]
    name, value, unit = workload.headline(call_s)
    notes.append(f"{name} = {value:.6g} {unit}")
    if len(calls[0].latencies_ms) > 1:
        # Percentiles within each call (a replay's p99 has ten of its 1000
        # rounds beyond it), normalised, then the median over calls.
        per_call = np.array([np.percentile(c.latencies_ms, [50, 99]) * c.scale for c in calls])
        notes.append(
            f"round_p50_ms = {np.median(per_call[:, 0]):.6g} ms, round_p99_ms = "
            f"{np.median(per_call[:, 1]):.6g} ms over {len(calls[0].latencies_ms)} "
            f"{workload.request} per call, {sum(len(c.latencies_ms) for c in calls)} in all"
        )
    return metrics, calls, failures, notes


def traced(workload, args) -> tuple[dict, list, list[str], list[str]]:
    """Per-layer metrics from a traced run, plus the tracing overhead."""
    from repro.obs.trace import Tracer

    workload.setup(warm=not args.smoke)
    min_calls = 1 if args.smoke else 2
    plain = run_calls(workload.call, args.seconds / 2, min_calls)
    tracer = Tracer(enabled=True)
    traced_calls = run_calls(lambda: workload.traced_call(tracer), args.seconds / 2, min_calls)
    metrics = {name: 0.0 for name in PER_LAYER}
    for name in traced_calls[0].layers:
        metrics[name] = statistics.median(c.layers[name] for c in traced_calls)
    metrics["trace.overhead_ratio"] = statistics.median(
        c.seconds * c.scale for c in traced_calls
    ) / statistics.median(c.seconds * c.scale for c in plain)
    calls = plain + traced_calls
    failures = count_failures(workload, calls)
    path = write_spans(tracer, args)
    notes = [
        f"per-layer values: median over {len(traced_calls)} traced calls (wall time); "
        f"overhead: normalised median traced call over that of {len(plain)} untraced calls",
        f"spans written to {path.relative_to(ROOT)}",
    ]
    return metrics, calls, failures, notes


def write_spans(tracer, args) -> Path:
    """Write the in-memory spans out once the run is over."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"provenance": provenance()}) + "\n")
        for record in tracer.records:
            handle.write(json.dumps(record.to_dict()) + "\n")
    return path


def report(args, metrics: dict, calls: list, failures: list[str], notes: list[str]) -> dict:
    """Print the table, then the result object as the last line; return it."""
    units = PER_LAYER if args.trace else END_TO_END
    facts = " ".join(f"{key}={value}" for key, value in provenance().items())
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} calls={len(calls)}")
    print(f"  {facts}")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:16.6f} {units[name]}")
    error_rate = len(failures) / len(calls)
    print(f"  {'error_rate':24s} {error_rate:16.6f} ratio ({len(failures)} of {len(calls)} calls)")
    for line in notes:
        print(f"  # {line}")
    for reason in sorted(set(failures)):
        print(f"  ! {reason}")
    result = {
        "correct": not failures,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return result


def smoke(args, workloads: dict) -> int:
    """Every workload, tiny, both modes: names and units match BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {entry["name"]: entry["unit"] for entry in spec["end_to_end"]},
        1: {entry["name"]: entry["unit"] for entry in spec["per_layer"]},
    }
    problems = [
        f"BENCHMARK.json names unknown workload {entry['name']!r}"
        for entry in spec["workloads"]
        if entry["name"] not in workloads
    ]
    for name, cls in workloads.items():
        for trace in (0, 1):
            run_args = argparse.Namespace(
                **{**vars(args), "workload": name, "trace": trace, "seconds": 0.0}
            )
            measure = traced if trace else untraced
            result = report(run_args, *measure(cls(args.seed, smoke=True), run_args))
            printed = {key: entry["unit"] for key, entry in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{name} trace={trace}: printed {printed}")
            if result["failed"]:
                problems.append(f"{name} trace={trace}: error_rate is not 0")
    for problem in problems:
        print(f"smoke: FAILED {problem}")
    print("smoke: ok" if not problems else "smoke: failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="fleet-benign")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    if args.smoke and not args.setup_only:
        return smoke(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    if args.setup_only:
        workload.setup(warm=not args.smoke)
        return 0
    measure = traced if args.trace else untraced
    report(args, *measure(workload, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
