"""Pin the SHA-256 of every workload input and output for some seeds.

    python3 bench/pin.py SEED [SEED ...]

For each seed and workload this builds the inputs, runs the command chain
once, applies the seed-independent output checks and records the digests in
``bench/pins.json`` (entries for other seeds are kept). Run it on the commit
whose outputs are correct; a later change must reproduce these bytes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import workloads as wl
from run import Ledger, prepare, run_chain


def pin(name: str, seed: int) -> dict:
    work = wl.ROOT / ".bench_work" / f"pin-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ledger = Ledger(None)
        inputs = prepare(name, seed, work, ledger, None)
        ledger.command(wl.run_child(wl.CLI + wl.SETUP_ARGV, work), wl.SETUP_ARGV, work)
        run_chain(wl.chain(name, seed), work, ledger)
        problems = ledger.problems + wl.check_outputs(name, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise SystemExit(f"{name} seed {seed}: " + "; ".join(problems))
    outputs = {f: d for f, d in ledger.expected.items() if f not in inputs}
    return {"inputs": inputs, "outputs": outputs}


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    pins = wl.load_pins()
    for seed in seeds:
        for name in wl.SPEC["workloads"]:
            pins.setdefault(name, {})[str(seed)] = pin(name, seed)
            print(f"pinned {name} seed {seed}", file=sys.stderr)
        wl.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
