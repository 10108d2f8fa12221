"""Benchmark of record for the campaign engine.

Run from the root of a checkout::

    python3 perfbench/run.py --workload arrestment-serial --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``wall_s``, ``ir_per_s``, ``peak_rss_mb`` and ``setup_s`` (the median
of several fresh-process set-ups).  ``--trace 1`` alternates untraced
and traced executions of the workload and publishes the per-layer
metrics, the layer budget of the parent's wall clock and the tracing
overhead.  Either way every execution passes the workload's
correctness gate; grid coordinates that fail it are counted in
``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report.  Without ``src/repro`` next to
this directory the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / "work"
REFERENCE = ROOT / "perfbench" / "reference" / "arrestment.json"

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "ir_per_s": "runs/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: time one set-up in this fresh process and exit",
    )
    return parser.parse_args(argv)


def _probe_setup(args) -> int:
    """Time imports + set-up of one workload in this (fresh) process."""
    started = time.perf_counter()
    from perfbench import workloads

    workloads.prepare(
        args.workload,
        workloads.make_inputs(args.workload, args.seed),
        WORK / f"probe-{args.workload}",
    )
    print(repr(time.perf_counter() - started))
    return 0


def _setup_seconds(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; pool workers count through CHILDREN.
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _load_reference(workload: str):
    from perfbench import workloads

    if workload == workloads.CHAIN_EDIT:
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _one(workload, inputs, reference, tracer=None):
    """Set up, execute and gate one workload execution."""
    from perfbench import layers, workloads

    workdir = WORK / workload
    if tracer is None:
        prepared = workloads.prepare(workload, inputs, workdir)
        execution = workloads.execute(prepared)
        dumps = None
    else:
        trace_dir = WORK / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        tracer.reset()
        layers.install(tracer, trace_dir)
        try:
            prepared = workloads.prepare(workload, inputs, workdir)
            execution = workloads.execute(prepared, tracer)
        finally:
            layers.uninstall()
        dumps = layers.collect(tracer, trace_dir)
    gate = workloads.check(prepared, execution, reference)
    return prepared, execution, gate, dumps


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.probe_setup:
        return _probe_setup(args)

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = _load_reference(args.workload)
    if args.trace:
        from perfbench import report

        payload = report.traced_run(args, inputs, reference, _one)
    else:
        payload = _untraced_run(args, inputs, reference)
    _stop_resource_tracker()
    print(json.dumps(payload))
    return 0


def _stop_resource_tracker() -> None:
    """End the helper process shared memory starts, and wait for it.

    ``execute_parallel`` publishes Golden Runs through shared memory,
    which starts multiprocessing's resource tracker; it would otherwise
    outlive this process by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _untraced_run(args, inputs, reference) -> dict:
    setup = _setup_seconds(args)
    walls, rates = [], []
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        _, execution, gate, _ = _one(args.workload, inputs, reference)
        walls.append(execution.wall_s)
        rates.append(execution.executed / execution.wall_s)
        attempted += gate.attempted
        failed += gate.failed
        problems.extend(gate.problems)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(walls) > args.seconds:
            break
    metrics = {
        "wall_s": statistics.median(walls),
        "ir_per_s": statistics.median(rates),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": statistics.median(setup),
    }
    print(f"{args.workload} seed={args.seed}: {len(walls)} execution(s)")
    print("  wall_s     " + " ".join(f"{w:.3f}" for w in walls))
    print("  setup_s    " + " ".join(f"{s:.3f}" for s in setup))
    print(f"  error_rate {failed}/{attempted}")
    for problem in problems:
        print(f"  gate: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in metrics.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
