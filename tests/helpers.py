"""Independent reference implementations used to check the fast paths.

These stay deliberately naive: the recursive distance explores every edit
at every step, the grid recount walks every token pair with nested loops,
and the network oracle compares every pair of types whose lengths differ by
at most one. The parse oracle builds one token per occurrence, the
normalization oracle segments every occurrence, and the generator oracles
call the source kernel once per candidate and rebuild each distribution's
weights per draw; the memoised library versions must match them RNG call
for RNG call. Apart from the kernel table, the corpus data classes and
``assemble_corpus``, none shares code with the library internals it
checks. The hand-enumerated grid cases live here too, shared between the
unit tests and the acceptance suite.
"""

from __future__ import annotations

import re
from dataclasses import replace

from selfcite.corpus import (
    TRANSLITERATION,
    Corpus,
    Locus,
    ParseError,
    ParserOptions,
    Token,
    assemble_corpus,
)
from selfcite.editdist import Alphabet, are_similar, edit_distance
from selfcite.generator import SOURCE_BIAS_KERNELS


def naive_distance(a, b, alphabet: Alphabet) -> int:
    """Exponential-time weighted edit distance over grapheme sequences."""
    if isinstance(a, str):
        a = alphabet.segment(a)
    if isinstance(b, str):
        b = alphabet.segment(b)
    indel = alphabet.indel_cost

    def rec(x, y):
        if not x:
            return len(y) * indel
        if not y:
            return len(x) * indel
        best = rec(x[1:], y) + indel
        via_insert = rec(x, y[1:]) + indel
        if via_insert < best:
            best = via_insert
        if x[0] == y[0]:
            sub = 0
        elif are_similar(x[0], y[0], alphabet):
            sub = alphabet.similar_substitution_cost
        else:
            sub = alphabet.dissimilar_substitution_cost
        via_sub = rec(x[1:], y[1:]) + sub
        if via_sub < best:
            best = via_sub
        return best

    return rec(tuple(a), tuple(b))


def brute_force_grid_counts(
    corpus: Corpus,
    alphabet: Alphabet,
    max_line_offset: int,
    max_pos_offset: int,
    target_distance: int,
    drop_line_edges: bool = False,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Recount every windowed pair with plain nested loops.

    Returns {(line_offset, pos_offset): (pair_count, match_count)} using the
    naive recursive distance for the match test. Only sensible for small
    corpora.
    """
    lines = [[tok.graphemes or alphabet.segment(tok.raw) for tok in line.tokens]
             for line in corpus.lines]
    counts: dict[tuple[int, int], list[int]] = {}
    for i in range(max_line_offset + 1):
        for j in range(-max_pos_offset, max_pos_offset + 1):
            if i == 0 and j >= 0:
                continue
            counts[(i, j)] = [0, 0]
    for n, line in enumerate(lines):
        for m, word in enumerate(line):
            if drop_line_edges and (m == 0 or m == len(line) - 1):
                continue
            for i in range(max_line_offset + 1):
                if i > n:
                    break
                other = lines[n - i]
                for j in range(-max_pos_offset, max_pos_offset + 1):
                    if i == 0 and j >= 0:
                        continue
                    p = m + j
                    if p < 0 or p >= len(other):
                        continue
                    if drop_line_edges and (p == 0 or p == len(other) - 1):
                        continue
                    cell = counts[(i, j)]
                    cell[0] += 1
                    if naive_distance(word, other[p], alphabet) == target_distance:
                        cell[1] += 1
    return {k: (v[0], v[1]) for k, v in counts.items()}


def bucket_edges(nodes: dict[str, tuple[str, ...]], alphabet: Alphabet):
    """Distance-1 edges by comparing types in adjacent length buckets."""
    by_length: dict[int, list[str]] = {}
    for word, seq in nodes.items():
        by_length.setdefault(len(seq), []).append(word)
    edges = set()
    for length, words in by_length.items():
        words = sorted(words)
        for bucket in (words, by_length.get(length + 1, ())):
            same = bucket is words
            for x, a in enumerate(words):
                others = bucket[x + 1 :] if same else bucket
                for b in others:
                    if edit_distance(nodes[a], nodes[b], alphabet, bound=1) == 1:
                        edges.add((a, b) if a < b else (b, a))
    return edges


_ORACLE_LOCUS = re.compile(r"<([^<>.;,\s]+)\.([^<>.;,\s]+)\.(\d+)(?:;[^<>]*)?>")


def oracle_parse_transliteration(
    text: str, options: ParserOptions = ParserOptions()
) -> Corpus:
    """Transliteration parsing with a fresh token for every occurrence."""
    records = []
    para_id = -1
    prev = None  # (page, unit) of the previous kept line
    pending_break = False
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped:
            pending_break = True
            continue
        if stripped.startswith("#"):
            continue
        match = _ORACLE_LOCUS.match(stripped)
        if match is None:
            raise ParseError(line_no, f"malformed locus tag in {stripped[:40]!r}")
        page, unit, number = match.group(1), match.group(2), int(match.group(3))
        locus = Locus(page, unit, number, match.group(0))
        body = re.sub(r"\{[^}]*\}", "", stripped[match.end():])
        ends_paragraph = body.rstrip().endswith("=")
        body = body.replace("!", "").replace("%", "")
        if options.units is not None and locus.unit_kind not in options.units:
            pending_break = True
            continue
        if pending_break or prev != (page, unit):
            para_id += 1
        words = [w for w in re.split(r"[.,\s=-]+", body) if w]
        records.append((locus, tuple(Token(w) for w in words), para_id))
        prev = (page, unit)
        pending_break = ends_paragraph
    if not records:
        raise ValueError("empty corpus")
    return assemble_corpus(records, TRANSLITERATION)


def oracle_normalize(corpus: Corpus, alphabet: Alphabet, min_graphemes: int) -> Corpus:
    """Normalization segmenting every token occurrence on its own."""
    kept = []
    for line in corpus.lines:
        tokens = []
        for token in line.tokens:
            graphemes = alphabet.segment(token.raw)
            if len(graphemes) >= min_graphemes:
                tokens.append(replace(token, graphemes=graphemes))
        if tokens:
            kept.append((line.locus, tuple(tokens), line.paragraph_id))
    if not kept:
        raise ValueError("empty corpus")
    return assemble_corpus(kept, corpus.source_kind)


def oracle_pick_source(history, current_line, m, rng, params):
    """Source draw calling the kernel once per candidate word."""
    kernel = SOURCE_BIAS_KERNELS[params.source_position_bias]
    depth = params.source_window_lines - 1
    window = [current_line] + (history[-depth:][::-1] if depth else [])
    candidates = []
    weights = []
    for i, line in enumerate(window):
        for p, word in enumerate(line):
            candidates.append(word)
            weights.append(kernel(i, p, m))
    if not candidates:
        return None
    return rng.choices(candidates, weights)[0]


def oracle_draw(rng, distribution) -> int:
    """Distribution draw rebuilding the value and weight lists each call."""
    values = [k for k, _ in distribution]
    weights = [v for _, v in distribution]
    return rng.choices(values, weights)[0]


# ---------------------------------------------------------------------------
# hand-enumerated toy grids: expected values worked out cell by cell by hand
# ---------------------------------------------------------------------------

HAND_ALPHABETS = {
    "xyz": Alphabet.single_characters("xyz"),
    "a": Alphabet.single_characters("a"),
    "pqrst": Alphabet.single_characters("pqrst"),
    "abc7": Alphabet.single_characters("abcdxyz"),
    "cho": Alphabet(
        graphemes=("ch", "a", "o", "l", "r"),
        similarity_groups=(frozenset({"a", "o"}),),
        dissimilar_substitution_cost=2,
    ),
}

# (name, token lines, alphabet key, grid kwargs, {(i, j): (pairs, matches)})
HAND_GRID_CASES = [
    (
        "two_lines_d0",
        [["x", "y"], ["x", "z"]],
        "xyz",
        dict(max_line_offset=1, max_pos_offset=1, target_distance=0),
        {(0, -1): (2, 0), (1, -1): (1, 0), (1, 0): (2, 1), (1, 1): (1, 0)},
    ),
    (
        "saturated_repeats_d0",
        [["a", "a"], ["a", "a"], ["a", "a"]],
        "a",
        dict(max_line_offset=2, max_pos_offset=1, target_distance=0),
        {
            (0, -1): (3, 3),
            (1, -1): (2, 2), (1, 0): (4, 4), (1, 1): (2, 2),
            (2, -1): (1, 1), (2, 0): (2, 2), (2, 1): (1, 1),
        },
    ),
    (
        "grapheme_distance1",
        [["chol", "chor"], ["chal", "ol"]],
        "cho",
        dict(max_line_offset=1, max_pos_offset=1, target_distance=1),
        {(0, -1): (2, 0), (1, -1): (1, 1), (1, 0): (2, 1), (1, 1): (1, 0)},
    ),
    (
        "drop_line_edges",
        [["p", "q", "r", "s"], ["q", "q", "t"]],
        "pqrst",
        dict(max_line_offset=1, max_pos_offset=2, target_distance=0,
             drop_line_edges=True),
        {
            (0, -2): (0, 0), (0, -1): (1, 0),
            (1, -2): (0, 0), (1, -1): (0, 0), (1, 0): (1, 1),
            (1, 1): (1, 0), (1, 2): (0, 0),
        },
    ),
    (
        "exact_distance2_not_at_most",
        [["abc", "abd"], ["abc", "xyc", "azc"]],
        "abc7",
        dict(max_line_offset=1, max_pos_offset=1, target_distance=2),
        {(0, -1): (3, 2), (1, -1): (2, 2), (1, 0): (2, 0), (1, 1): (1, 0)},
    ),
]
