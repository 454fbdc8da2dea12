"""Repeat the benchmark across seeds and keep the bench trajectory.

    python3 bench/record.py spread --seeds 1 2 3 4 5 [--workload NAME ...] [--seconds S]
    python3 bench/record.py baseline --label TEXT [--seed N] [--workload NAME ...] [--seconds S]

Both cover the workloads listed in ``BENCHMARK.json`` unless told otherwise.
``spread`` runs ``bench/run.py --trace 0`` once per seed and workload and
prints, per end-to-end metric, the median of the run medians and their
interquartile range as a share of that median, next to a third of the
metric's bound (the steadiness target). It exits 1 if any run was incorrect.

``baseline`` runs each workload with ``--trace 0`` and ``--trace 1`` on one
seed and appends an entry (end-to-end medians with sample counts, fail rate,
per-layer medians, property counts, tracing overhead) to
``bench/trajectory.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import workloads as wl
from spans import SPAN_NAMES

RUN = (sys.executable, str(wl.BENCH_DIR / "run.py"))
TRAJECTORY = wl.BENCH_DIR / "trajectory.json"
DECLARED = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GATED = [w["name"] for w in DECLARED["workloads"]]  # the workloads BENCHMARK.json lists


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns its ``--report`` contents plus the result line."""
    report = wl.ROOT / f".bench_report-{os.getpid()}.json"
    proc = subprocess.run(
        RUN + ("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--report", str(report)),
        cwd=wl.ROOT, capture_output=True, text=True, check=False,
    )
    sys.stderr.write(proc.stdout if proc.returncode else "")
    if proc.returncode != 0:
        raise SystemExit(f"run.py failed on {workload} seed {seed}: {proc.stderr}")
    try:
        data = json.loads(report.read_text(encoding="utf-8"))
    finally:
        report.unlink(missing_ok=True)
    data["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return data


def is_layer_metric(name: str) -> bool:
    """Span and tracing figures, as opposed to workload-property counts."""
    return name.rsplit(".", 1)[0] in SPAN_NAMES or name.startswith("trace.")


def spread(args) -> int:
    ok = True
    for workload in args.workload or GATED:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in args.seeds]
        ok &= all(r["result"]["correct"] for r in runs)
        print(f"{workload}: seeds {args.seeds}, correct {[r['result']['correct'] for r in runs]}")
        for metric in DECLARED["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:<12} median {mid:.4f} {metric['unit']:<3} "
                  f"IQR/median {(q3 - q1) / mid:.4f} (target < {metric['bound'] / 3:.4f})  "
                  + " ".join(f"{v:.3f}" for v in values))
    return 0 if ok else 1


def baseline(args) -> int:
    entry = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": {},
    }
    for workload in args.workload or GATED:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        medians = {
            key: {"median": statistics.median(v), "n": len(v)}
            for key, v in plain["samples"].items()
        }
        layers = {key: statistics.median(v) for key, v in traced["samples"].items()}
        entry["workloads"][workload] = {
            "pinned": plain["pinned"],
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "fail_rate": plain["failed"] / plain["attempted"],
            "end_to_end": medians,
            "per_layer": {k: v for k, v in layers.items() if is_layer_metric(k)},
            "properties": {k: v for k, v in layers.items() if not is_layer_metric(k)},
        }
        print(f"{workload}: done", file=sys.stderr)
    history = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.is_file() else []
    history.append(entry)
    TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)
    sub = subs.add_parser("spread")
    sub.add_argument("--seeds", type=int, nargs="+", required=True)
    sub.add_argument("--workload", action="append", choices=sorted(wl.SPEC["workloads"]))
    sub.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    sub.set_defaults(func=spread)
    sub = subs.add_parser("baseline")
    sub.add_argument("--label", required=True)
    sub.add_argument("--seed", type=int, default=wl.SPEC["default_seed"])
    sub.add_argument("--workload", action="append", choices=sorted(wl.SPEC["workloads"]))
    sub.add_argument("--seconds", type=float, default=DECLARED["run_seconds"])
    sub.set_defaults(func=baseline)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
