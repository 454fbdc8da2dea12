"""Workload-property counts of one input, from the package's public objects.

Usage: python3 bench/props.py OUT_JSON --input FILE [--kind plaintext]
       [--profile NAME] [--min-graphemes N] [--grid] [--network]

Counts corpus tokens, lines and types after normalisation; with ``--grid``
the pair instances and matches at distances 0, 1 and 2 (from the cells of
``compute_grids``) and the distinct pairs (from this file's own windowed
enumeration, which must also reproduce the instance count); with
``--network`` the nodes and edges of the distance-1 graph. Counts of a layer
the workload does not run are reported as 0.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from selfcite import (
    GridSpec,
    TypeTable,
    build_graph,
    compute_grids,
    load_profile,
    normalize,
    parse_plaintext,
    parse_transliteration,
    profile_from_corpus,
)

ROWS = 9
COUNTS = [
    "corpus.tokens", "corpus.lines", "corpus.types",
    "cooccur.pair_instances", "cooccur.distinct_pairs", "cooccur.dedup_share",
    "cooccur.matches.d0", "cooccur.matches.d1", "cooccur.matches.d2",
    "network.nodes", "network.edges",
]


def window_pairs(corpus, cols: int) -> tuple[int, int]:
    """(pair instances, distinct unordered type pairs) over the grid window.

    A token at line n, position m pairs with every earlier-written token at
    line n-i, position m+j (0 <= i <= ROWS, |j| <= cols, and j < 0 on its
    own line).
    """
    ids: dict[tuple, int] = {}
    lines = [[ids.setdefault(t.graphemes, len(ids)) for t in line.tokens]
             for line in corpus.lines]
    n_types = len(ids)
    width = max(len(line) for line in lines)
    grid = np.full((len(lines), width), -1, dtype=np.int64)
    for n, line in enumerate(lines):
        grid[n, : len(line)] = line
    instances = 0
    distinct = []
    for i in range(ROWS + 1):
        for j in range(-cols, 0 if i == 0 else cols + 1):
            if i >= len(lines) or abs(j) >= width:
                continue
            here = grid[i:, max(0, -j): width - max(0, j)]
            there = grid[: len(lines) - i, max(0, j): width - max(0, -j)]
            both = (here >= 0) & (there >= 0)
            a, b = here[both], there[both]
            instances += len(a)
            distinct.append(np.unique(np.minimum(a, b) * n_types + np.maximum(a, b)))
    return instances, len(np.unique(np.concatenate(distinct)))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("out")
    parser.add_argument("--input", required=True)
    parser.add_argument("--kind", default="transliteration")
    parser.add_argument("--profile", default="vms")
    parser.add_argument("--min-graphemes", type=int, default=2)
    parser.add_argument("--grid", action="store_true")
    parser.add_argument("--network", action="store_true")
    args = parser.parse_args(argv)

    with open(args.input, encoding="utf-8") as f:
        text = f.read()
    corpus = parse_plaintext(text) if args.kind == "plaintext" else parse_transliteration(text)
    profile = profile_from_corpus(corpus) if args.profile == "chars" else load_profile(args.profile)
    corpus = normalize(corpus, profile.alphabet, args.min_graphemes)
    counts = dict.fromkeys(COUNTS, 0)
    counts["corpus.tokens"] = corpus.token_count()
    counts["corpus.lines"] = len(corpus.lines)
    counts["corpus.types"] = len({t.raw for t in corpus.iter_tokens()})
    problems = []
    if args.grid:
        spec = GridSpec(alphabet=profile.alphabet, max_line_offset=ROWS,
                        max_pos_offset=profile.grid_pos_offset)
        grids = compute_grids(corpus, spec, (0, 1, 2))
        instances = sum(c.pair_count for c in grids[0].cells.values())
        own_instances, distinct = window_pairs(corpus, profile.grid_pos_offset)
        if own_instances != instances:
            problems.append(
                f"grid cells hold {instances} pair instances, the window has {own_instances}"
            )
        counts["cooccur.pair_instances"] = instances
        counts["cooccur.distinct_pairs"] = distinct
        counts["cooccur.dedup_share"] = 1 - distinct / instances if instances else 0.0
        for d, grid in grids.items():
            counts[f"cooccur.matches.d{d}"] = sum(c.match_count for c in grid.cells.values())
    if args.network:
        table = TypeTable.from_corpus(corpus, profile.alphabet)
        graph = build_graph(table, profile.alphabet)
        counts["network.nodes"] = len(graph.nodes)
        counts["network.edges"] = len(graph.edges())
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"counts": counts, "problems": problems}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
