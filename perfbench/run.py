"""The repository benchmark: IQL workloads measured end to end and per layer.

Run from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload tc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --describe

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics of a separate traced run, whose spans are
written to ``perfbench/results/``. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit and
sample count, the error rate and the host, with the run's median
calibration time. Every time is reported at a reference host speed (see
``speed.py``). ``--workload all`` runs each workload in a fresh
interpreter, one after the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_spec() -> dict:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        fail(f"{ROOT} is not a checkout of the repository (src/repro or BENCHMARK.json missing)")
    sys.path.insert(0, str(ROOT / "src"))
    return json.loads(spec_path.read_text(encoding="utf-8"))


def host() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
    }


def run_one(spec: dict, args: argparse.Namespace) -> int:
    from session import median, run_session, sample_counts
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    tracer = Tracer(run_id, enabled=bool(args.trace))
    session = run_session(workload, ROOT, args.seed, args.seconds, tracer)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = session.layer_metrics()
        counts: dict = {}
    else:
        values = {name: median(samples) for name, samples in session.samples.items()}
        counts = sample_counts(session)
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in values:
            fail(f"workload {args.workload} produced no value for {name}")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}

    host_record = host()
    host_record["calibration_ms"] = round(median(session.speed.samples) * 1e3, 4)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  host {json.dumps(host_record)}")
    for name, metric in metrics.items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}{n}")
    error_rate = session.failed / max(session.attempted, 1)
    print(f"  {'error_rate':<34} {error_rate:>16.6g} ratio  ({session.failed} of {session.attempted} operations)")
    for problem in session.problems:
        print(f"  problem: {problem}")
    if args.trace:
        own: dict = {}
        for span, ns in zip(tracer.spans, tracer.self_times_ns()):
            own[span["name"]] = own.get(span["name"], 0) + ns
        print("  self time by span:")
        for name, ns in sorted(own.items(), key=lambda item: -item[1]):
            print(f"    {name:<32} {ns / 1e9:>12.4f} s")
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path, {"run": run_id, "workload": args.workload, "seed": args.seed, "host": host_record})
        print(f"  spans written to {path.relative_to(ROOT)}")
    correct = session.failed == 0 and not session.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def run_all(spec: dict, args: argparse.Namespace) -> int:
    """Each workload in a fresh interpreter, output passed through."""
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        status |= subprocess.run(command, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="show that every output check catches a corrupted fact")
    parser.add_argument("--describe", action="store_true", help="print which end-to-end metric each layer metric moves")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.describe:
        from layers import describe

        print(describe())
        return 0
    if args.self_test:
        from selftest import self_test

        return self_test(spec, ROOT)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(spec, args)
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json names {names}")
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
