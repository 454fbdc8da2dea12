"""The selfcite benchmark: one workload, closed loop, one client.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their inputs and their command chains are in ``bench/spec.json``.
``BENCHMARK.json`` lists the ones a change is gated on; ``wide-plaintext`` runs
the same way but is left out there, because its memory-bound run time swung
by a factor of two with the load of the shared host (see its note in
``spec.json``).
The inputs are built from the seed first, untimed. With ``--trace 0`` the
chain then runs again and again for about S seconds (at least three times),
each command a fresh ``python3 -m selfcite.cli`` child, and the run reports
the end-to-end metrics named in ``BENCHMARK.json``:

    wall_s       wall time of the chain (sum over its commands)
    cpu_s        user + system CPU time of the chain's children (os.wait4)
    peak_rss_mb  largest ru_maxrss of any child in the chain
    setup_s      wall time of a fresh ``selfcite profile --profile vms``
                 (import + profile load), median of several probes

each as a median over repetitions. ``fail_rate`` (failed / attempted
commands) is printed too and is carried by the ``failed`` and ``attempted``
fields of the result.

With ``--trace 1`` untraced and traced chains alternate; the traced one runs
each command in-process under ``bench/spans.py``. The run reports the
per-layer metrics of ``BENCHMARK.json``: self time and calls per span,
the DP's within-bound share, workload-property counts from
``bench/props.py``, and the tracing overhead.

A command fails when it exits nonzero, writes a traceback, leaves an output
or manifest missing, or writes output bytes that differ from the digest
pinned in ``bench/pins.json`` for this workload and seed. On a seed with no
pin the outputs are reported as unverified: they must still pass the
seed-independent checks in ``workloads.check_outputs`` and be identical
across repetitions. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import SPAN_NAMES, analyse

MIN_REPS = 3  # untraced chains per end-to-end run; a traced run needs one pair
SPANS_CLI = (sys.executable, str(wl.BENCH_DIR / "spans.py"))
PROPS_CLI = (sys.executable, str(wl.BENCH_DIR / "props.py"))
PROPS_ARGS = {
    "book-grid": ("--input", "book.evt", "--grid"),
    "null-validate": ("--input", "shuffled.evt", "--grid"),
    "wide-plaintext": ("--input", "wide.txt", "--kind", "plaintext",
                       "--profile", "chars", "--min-graphemes", "1", "--grid"),
    "generate-network": ("--input", "generated.evt", "--network"),
}


class Ledger:
    """Attempted and failed commands, with the reason for each failure."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = dict(expected or {})  # output file -> digest
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def command(self, run: wl.Run, argv, work: Path) -> None:
        """Count one command and check everything it should have left behind."""
        self.attempted += 1
        problems = [run.problem()] if run.problem() else []  # exit code, traceback
        required = wl.outputs(argv)
        if "--out" in argv:
            required = required + [argv[argv.index("--out") + 1] + ".manifest.json"]
        missing = [f for f in required if not (work / f).is_file()]
        problems += [f"missing output {f}" for f in missing]
        for f in wl.outputs(argv):
            if f in missing:
                continue
            digest = wl.sha256(work / f)
            # Without a pin the first repetition's bytes become the reference.
            wanted = self.expected.setdefault(f, digest)
            if digest != wanted:
                problems.append(f"{f}: sha256 {digest[:12]} differs from {wanted[:12]}")
        if problems:
            self.failed += 1
            self.problems += [f"{argv[0]}: {p}" for p in problems]


def prepare(name: str, seed: int, work: Path, ledger: Ledger, pin: dict | None) -> dict:
    """Build the workload's inputs; returns their digests, checked against the pin."""
    setup_runs, input_digests = wl.build_inputs(name, seed, work)
    for run in setup_runs:
        ledger.command(run, run.argv[len(wl.CLI):], work)
    if pin and input_digests != pin["inputs"]:
        ledger.fail(f"input digests {input_digests} differ from the pinned ones")
    return input_digests


def clear_outputs(commands, work: Path) -> None:
    for argv in commands:
        for f in wl.outputs(argv):
            for path in (work / f, work / (f + ".manifest.json")):
                path.unlink(missing_ok=True)


def run_chain(commands, work: Path, ledger: Ledger, traced: bool = False):
    """One repetition; returns (wall_s, cpu_s, peak_rss_mb, span records)."""
    clear_outputs(commands, work)
    runs, records = [], []
    for k, argv in enumerate(commands):
        if not traced:
            run = wl.run_child(wl.CLI + tuple(argv), work)
        else:
            spans_file = work / f"spans-{k}.json"
            run = wl.run_child(SPANS_CLI + (str(spans_file), "--") + tuple(argv), work)
            if spans_file.is_file():
                records.append(json.loads(spans_file.read_text(encoding="utf-8")))
                spans_file.unlink()
            else:
                ledger.fail(f"{argv[0]}: traced run wrote no spans")
        ledger.command(run, argv, work)
        runs.append(run)
    return (
        sum(r.wall_s for r in runs),
        sum(r.cpu_s for r in runs),
        max(r.rss_mb for r in runs),
        records,
    )


def summary(values: list[float], unit: str) -> str:
    """Median and sample count, plus the highest percentile with >= 10 samples beyond it."""
    if len(values) == 1:
        return f"{values[0]:.4f} {unit}"
    text = f"median {statistics.median(values):.4f} {unit} (n={len(values)}"
    for pct in (99, 95, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            return text + f", p{pct} {cut:.4f})"
    return text + ")"


def unit_of(name: str) -> str:
    """Unit of a reported quantity that BENCHMARK.json does not declare."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def timed_loop(seconds: float, rep, min_reps: int) -> None:
    """Repeat ``rep`` at least ``min_reps`` times, then while another fits in ``seconds``."""
    start = perf_counter()
    durations = []
    while True:
        t = perf_counter()
        rep()
        durations.append(perf_counter() - t)
        elapsed = perf_counter() - start
        if len(durations) >= min_reps and elapsed + statistics.median(durations) > seconds:
            return


def measure_end_to_end(name, seed, seconds, work, ledger) -> dict[str, list[float]]:
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    commands = wl.chain(name, seed)

    def probe():
        run = wl.run_child(wl.CLI + wl.SETUP_ARGV, work)
        ledger.command(run, wl.SETUP_ARGV, work)
        samples["setup_s"].append(run.wall_s)

    def rep():
        # One set-up probe per repetition spreads the probes over the whole run.
        probe()
        wall, cpu, rss, _ = run_chain(commands, work, ledger)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(cpu)
        samples["peak_rss_mb"].append(rss)
        if len(samples["wall_s"]) == 1:
            for p in wl.check_outputs(name, work):
                ledger.fail(p)

    timed_loop(seconds, rep, MIN_REPS)
    while len(samples["setup_s"]) < wl.SPEC["setup_probes"]:
        probe()
    return samples


def measure_layers(name, seed, seconds, work, ledger) -> dict[str, list[float]]:
    commands = wl.chain(name, seed)
    untraced, traced = [], []
    layers: dict[str, list[float]] = {}

    def rep():
        untraced.append(run_chain(commands, work, ledger)[0])
        wall, _, _, records = run_chain(commands, work, ledger, traced=True)
        traced.append(wall)
        totals: dict[str, dict] = {}
        for command_records in records:
            per_command, problems = analyse(command_records)
            for p in problems:
                ledger.fail(p)
            for span, entry in per_command.items():
                into = totals.setdefault(span, {"self_s": 0.0, "calls": 0, "hits": 0})
                for key in into:
                    into[key] += entry[key]
        for span in SPAN_NAMES:
            entry = totals.get(span, {"self_s": 0.0, "calls": 0, "hits": 0})
            layers.setdefault(f"{span}.self_s", []).append(entry["self_s"])
            layers.setdefault(f"{span}.calls", []).append(entry["calls"])
        dp = totals.get("editdist.bounded_distance_ids", {"calls": 0})
        layers.setdefault("editdist.bounded_distance_ids.within_bound_share", []).append(
            dp["hits"] / dp["calls"] if dp["calls"] else 0.0
        )

    timed_loop(seconds, rep, 1)
    for p in wl.check_outputs(name, work):
        ledger.fail(p)
    props_file = work / "props.json"
    run = wl.run_child(PROPS_CLI + (str(props_file),) + PROPS_ARGS[name], work)
    if run.problem() or not props_file.is_file():
        ledger.fail(f"props: {run.problem() or 'no output'}")
    else:
        props = json.loads(props_file.read_text(encoding="utf-8"))
        for p in props["problems"]:
            ledger.fail(p)
        for key, value in props["counts"].items():
            layers[key] = [value]
    layers["trace.wall_s"] = traced
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.overhead_s"] = [statistics.median(traced) - statistics.median(untraced)]
    return layers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=wl.SPEC["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None,
                        help="also write every sample and problem to this JSON file")
    args = parser.parse_args(argv)

    problem = wl.checkout_problem()
    benchmark_file = wl.ROOT / "BENCHMARK.json"
    if problem is None and not benchmark_file.is_file():
        problem = "missing BENCHMARK.json"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    declared = json.loads(benchmark_file.read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    pin = wl.load_pins().get(args.workload, {}).get(str(args.seed))
    ledger = Ledger(pin["outputs"] if pin else None)
    work = wl.ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        input_digests = prepare(args.workload, args.seed, work, ledger, pin)
        # Warm-up: compiles bytecode caches so no timed child pays for it.
        wl.run_child(wl.CLI + wl.SETUP_ARGV, work)
        measure = measure_layers if args.trace else measure_end_to_end
        samples = measure(args.workload, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key in sorted(samples):
        print(f"  {key:<52} {summary(samples[key], units.get(key, unit_of(key)))}")
    fail_rate = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"  {'fail_rate':<52} {fail_rate:.4f} ratio "
          f"({ledger.failed} of {ledger.attempted} commands)")
    if pin:
        print(f"  outputs: checked against the digests pinned for seed {args.seed}")
    else:
        print(f"  outputs: unverified (no digests pinned for seed {args.seed}); "
              "checked for structure and repeatability only")
    for p in ledger.problems:
        print(f"  problem: {p}")
    if args.report:
        Path(args.report).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "pinned": pin is not None, "attempted": ledger.attempted,
            "failed": ledger.failed, "problems": ledger.problems,
            "inputs": input_digests, "outputs": ledger.expected, "samples": samples,
        }, indent=1) + "\n", encoding="utf-8")

    metrics = {}
    for metric in wanted:
        values = samples.get(metric["name"])
        if not values:
            print(f"error: no samples for metric {metric['name']}", file=sys.stderr)
            return 1
        metrics[metric["name"]] = {
            "value": statistics.median(values), "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": not ledger.problems and ledger.failed == 0,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
