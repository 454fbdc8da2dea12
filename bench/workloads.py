"""Workload definitions and the child-process runner shared by the bench scripts.

Each workload is a chain of ``selfcite`` CLI commands (see ``spec.json``).
Inputs are built from the workload seed before timing starts; every command
then runs as a fresh child process under a pinned environment, one at a
time, and is timed with ``os.wait4`` so its CPU time and peak RSS come from
the kernel's rusage record.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text(encoding="utf-8"))
PINS_PATH = BENCH_DIR / "pins.json"
PROSE = ROOT / "tests" / "data" / "english_prose.txt"
CLI = (sys.executable, "-m", "selfcite.cli")
SETUP_ARGV = ("profile", "--profile", "vms", "--out", "profile.json")
OUTPUT_FLAGS = ("--out", "--rank-frequency-out")


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None if it can."""
    for path in (SRC / "selfcite" / "cli.py", PROSE):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}: run from a full checkout"
    return None


def child_env() -> dict[str, str]:
    """The same environment for every child: one thread, fixed hash seed."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "LANG": "C.UTF-8",
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    argv: tuple[str, ...]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str

    def problem(self) -> str | None:
        if self.code != 0:
            return f"exit {self.code}: {self.stderr.strip()[-300:]}"
        if "Traceback" in self.stderr:
            return f"traceback on stderr: {self.stderr.strip()[-300:]}"
        return None


def run_child(argv, cwd: Path) -> Run:
    """Run one command to completion; stdout is discarded, stderr kept."""
    err_path = cwd / ".stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), cwd=cwd, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        argv=tuple(argv),
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def chain(name: str, seed: int) -> list[list[str]]:
    """The workload's timed CLI commands, arguments only."""
    return [
        shlex.split(step.replace("<seed>", str(seed)))
        for step in SPEC["workloads"][name]["chain"]
    ]


def outputs(argv) -> list[str]:
    """Files whose bytes a command must reproduce: each output flag's value.

    The ``--out`` file's manifest must exist too but is not pinned, since it
    records arguments and may gain run statistics.
    """
    return [value for flag, value in zip(argv, argv[1:]) if flag in OUTPUT_FLAGS]


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def prose_vocabulary() -> list[str]:
    """Distinct lower-case words of the prose sample, sorted."""
    text = PROSE.read_text(encoding="utf-8").lower()
    return sorted(set(re.findall(r"[a-z]+(?:'[a-z]+)?", text)))


def write_wide_plaintext(path: Path, seed: int, shape: dict) -> None:
    rng = random.Random(seed)
    vocab = prose_vocabulary()
    paragraphs = []
    for _ in range(shape["paragraphs"]):
        lines = [
            " ".join(rng.choice(vocab) for _ in range(shape["words_per_line"]))
            for _ in range(shape["lines_per_paragraph"])
        ]
        paragraphs.append("\n".join(lines))
    path.write_text("\n\n".join(paragraphs) + "\n", encoding="utf-8")


def build_inputs(name: str, seed: int, work: Path) -> tuple[list[Run], dict[str, str]]:
    """Write the workload's input files; returns CLI runs and input digests."""
    shape = SPEC["workloads"][name]["input"]
    runs = []
    if name == "wide-plaintext":
        files = ["wide.txt"]
        write_wide_plaintext(work / files[0], seed, shape)
    elif name in ("book-grid", "null-validate"):
        files = ["book.evt" if name == "book-grid" else "corpus.evt"]
        runs.append(run_child(
            CLI + ("generate", "--tokens", str(shape["generate_tokens"]),
                   "--seed", str(seed), "--out", files[0]),
            work,
        ))
    else:
        files = []
    digests = {f: sha256(work / f) for f in files if (work / f).is_file()}
    return runs, digests


# ---------------------------------------------------------------------------
# output checks that hold for every seed
# ---------------------------------------------------------------------------

def read_evt(path: Path) -> list[tuple[str, list[str]]]:
    """(locus tag, words) per content line of a transliteration file."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            tag, _, text = line.partition(" ")
            lines.append((tag, text.split(".")))
    return lines


def _check_grid(path: Path, rows: int, cols: int) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    expected_header = [""] + ["m" if j == 0 else f"m{j:+d}" for j in range(-cols, cols + 1)]
    if lines[0].split(",") != expected_header:
        return [f"{path.name}: unexpected header {lines[0]!r}"]
    labels = [f"n-{i}" if i else "n" for i in range(rows, -1, -1)]
    if [row.split(",")[0] for row in lines[1:]] != labels:
        return [f"{path.name}: unexpected row labels"]
    problems = []
    for row in lines[1:]:
        for value in row.split(",")[1:]:
            if value in ("", "x"):
                continue
            if not re.fullmatch(r"\d+\.\d\d", value) or float(value) > 100:
                problems.append(f"{path.name}: bad cell {value!r}")
    return problems


def _check_edges(path: Path) -> list[str]:
    rows = path.read_text(encoding="utf-8").splitlines()
    if rows[0] != "type_a,type_b,operation" or len(rows) < 2:
        return [f"{path.name}: bad header or no edges"]
    pairs = [row.split(",") for row in rows[1:]]
    if any(len(p) != 3 or not p[0] < p[1] for p in pairs) or pairs != sorted(pairs):
        return [f"{path.name}: edges are not sorted (a < b) pairs"]
    if any(not re.fullmatch(r"(substitute \S+~\S+|indel \S+) @\d+", p[2]) for p in pairs):
        return [f"{path.name}: unknown edge operation"]
    return []


def _words(lines) -> Counter:
    return Counter(w for _, words in lines for w in words)


def _check_chain(name: str, work: Path) -> list[str]:
    if name == "book-grid":
        return _check_grid(work / "book_d1.csv", 9, 6)
    if name == "wide-plaintext":
        return _check_grid(work / "wide_d1.csv", 9, 5)
    problems = []
    if name == "null-validate":
        before = read_evt(work / "corpus.evt")
        after = read_evt(work / "shuffled.evt")
        if [(t, len(w)) for t, w in before] != [(t, len(w)) for t, w in after]:
            problems.append("shuffled.evt: line tags or lengths changed")
        if _words(before) != _words(after):
            problems.append("shuffled.evt: token multiset changed")
        report = json.loads((work / "validate.json").read_text(encoding="utf-8"))
        if report.get("token_count") != sum(len(w) for _, w in after):
            problems.append("validate.json: token_count differs from the input")
        if set(report.get("row_means", {})) != {"0", "1", "2"}:
            problems.append("validate.json: row_means lacks distances 0, 1, 2")
        return problems
    tokens = sum(len(w) for _, w in read_evt(work / "generated.evt"))
    wanted = SPEC["workloads"][name]["input"]["generate_tokens"]
    if tokens != wanted:
        problems.append(f"generated.evt: {tokens} tokens, expected {wanted}")
    problems += _check_edges(work / "edges.csv")
    stats = [json.loads(line) for line in
             (work / "stats.jsonl").read_text(encoding="utf-8").splitlines()]
    if not stats or any("statistic" not in s for s in stats):
        problems.append("stats.jsonl: malformed report")
    rows = [r.split(",") for r in
            (work / "ranks.csv").read_text(encoding="utf-8").splitlines()[1:]]
    counts = [int(r[-1]) for r in rows]
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)) \
            or counts != sorted(counts, reverse=True):
        problems.append("ranks.csv: ranks or counts out of order")
    return problems


def check_outputs(name: str, work: Path) -> list[str]:
    """Seed-independent checks of a finished chain's outputs."""
    try:
        return _check_chain(name, work)
    except (OSError, ValueError, IndexError) as exc:
        return [f"outputs of {name} unreadable: {exc!r}"]


def load_pins() -> dict:
    if not PINS_PATH.is_file():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))
