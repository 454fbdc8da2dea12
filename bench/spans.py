"""Traced in-process run of one ``selfcite`` CLI command.

Usage: python3 bench/spans.py SPANS_JSON -- CLI_ARG...

Spans are installed from here, without touching the package: each public
function is replaced, in the namespace of the module that calls it, by a
wrapper that records a span. ``cli.main`` is the root span. The two hot
leaf calls (``bounded_distance_ids``, ``edge_operation``) are aggregated
into one record per parent span, so hundreds of thousands of calls cost a
counter update each rather than a stored span.

The span file holds a list of records ``[name, start, end, duration,
parent, calls, hits]``; ``parent`` indexes the list (-1 for the root), and
``hits`` counts leaf calls that returned a value (a distance within the
bound). ``analyse`` turns the records into per-span self times and checks
that the tree is consistent.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

NAME, START, END, DURATION, PARENT, CALLS, HITS = range(7)

# (calling module, attribute, span name); the callee's home module names the span.
SPANS = [
    ("selfcite.cli", "parse_transliteration", "corpus.parse_transliteration"),
    ("selfcite.cli", "parse_plaintext", "corpus.parse_plaintext"),
    ("selfcite.cli", "normalize", "corpus.normalize"),
    ("selfcite.cli", "format_transliteration", "corpus.format_transliteration"),
    ("selfcite.cli", "load_profile", "profiles.load_profile"),
    ("selfcite.cli", "profile_from_corpus", "profiles.profile_from_corpus"),
    ("selfcite.cli", "render_grid", "cooccur.render_grid"),
    ("selfcite.cli", "generate", "generator.generate"),
    ("selfcite.cli", "shuffle_control", "generator.shuffle_control"),
    ("selfcite.cli", "validate_signature", "generator.validate_signature"),
    ("selfcite.cli", "build_graph", "network.build_graph"),
    ("selfcite.cli", "positional_stats", "posstats.positional_stats"),
    ("selfcite.cli", "rank_frequency", "posstats.rank_frequency"),
    ("selfcite.cooccur", "compute_grids", "cooccur.compute_grids"),
    ("selfcite.generator", "compute_grids", "cooccur.compute_grids"),
    ("selfcite.generator", "normalize", "corpus.normalize"),
]
LEAVES = [
    ("selfcite.cooccur", "bounded_distance_ids", "editdist.bounded_distance_ids"),
    ("selfcite.cli", "edge_operation", "network.edge_operation"),
]
ROOT_SPAN = "cli.main"
# Every span name a run can report, root first.
SPAN_NAMES = [ROOT_SPAN] + sorted(
    {name for _, _, name in SPANS + LEAVES} | {"network.TypeTable.from_corpus"}
)


class Tracer:
    """Spans kept in memory for one process; written out when it ends."""

    def __init__(self):
        self.records: list[list] = []
        self.stack = [-1]
        self.leaves: dict[tuple[int, str], list] = {}

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, None, self.stack[-1], 1, 0]
            self.stack.append(len(self.records))
            self.records.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record[END] = perf_counter()
                record[DURATION] = record[END] - record[START]
        return wrapper

    def leaf(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            key = (self.stack[-1], name)
            record = self.leaves.get(key)
            if record is None:
                record = [name, start, end, 0.0, key[0], 0, 0]
                self.leaves[key] = record
                self.records.append(record)
            record[END] = end
            record[DURATION] += end - start
            record[CALLS] += 1
            record[HITS] += result is not None
            return result
        return wrapper


def install(tracer: Tracer) -> None:
    import importlib

    for module_name, attr, name in SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.span(name, getattr(module, attr)))
    for module_name, attr, name in LEAVES:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.leaf(name, getattr(module, attr)))
    from selfcite.network import TypeTable

    from_corpus = TypeTable.from_corpus.__func__
    TypeTable.from_corpus = classmethod(
        tracer.span("network.TypeTable.from_corpus", from_corpus)
    )


def analyse(records: list[list]) -> tuple[dict[str, dict], list[str]]:
    """Per-name totals (self_s, calls, hits) and tree-consistency problems.

    Self time is a span's duration minus its children's durations. Children
    must lie inside their parent, self times must not be negative, and the
    self times must add up to the root's duration.
    """
    problems = []
    child_time = [0.0] * len(records)
    for idx, rec in enumerate(records):
        parent = rec[PARENT]
        if parent < 0:
            continue
        outer = records[parent]
        if not (outer[START] <= rec[START] and rec[END] <= outer[END] and parent < idx):
            problems.append(f"span {rec[NAME]} is not inside {outer[NAME]}")
        child_time[parent] += rec[DURATION]
    totals: dict[str, dict] = {}
    roots = [rec for rec in records if rec[PARENT] < 0]
    self_sum = 0.0
    for rec, children in zip(records, child_time):
        self_s = rec[DURATION] - children
        if self_s < -1e-6:
            problems.append(f"span {rec[NAME]} has negative self time {self_s:.6f}")
        self_sum += self_s
        entry = totals.setdefault(rec[NAME], {"self_s": 0.0, "calls": 0, "hits": 0})
        entry["self_s"] += self_s
        entry["calls"] += rec[CALLS]
        entry["hits"] += rec[HITS]
    if len(roots) != 1 or roots[0][NAME] != ROOT_SPAN:
        problems.append(f"expected one {ROOT_SPAN} root span, found {len(roots)}")
    elif abs(self_sum - roots[0][DURATION]) > 1e-6:
        problems.append(
            f"self times sum to {self_sum:.6f} s, root lasted {roots[0][DURATION]:.6f} s"
        )
    return totals, problems


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: spans.py SPANS_JSON -- CLI_ARG...", file=sys.stderr)
        return 2
    import selfcite.cli

    tracer = Tracer()
    install(tracer)
    code = tracer.span(ROOT_SPAN, selfcite.cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as out:
        json.dump(tracer.records, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
