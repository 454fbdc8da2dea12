"""Independent reference implementations used to check the fast paths.

These stay deliberately naive: the segmenter scans a word character by
character, trying every grapheme longest first, the recursive distance
explores every edit at every step, the scalar banded distance walks one
pair's rows in plain Python, the grid recount walks every token pair with
nested loops, and the network oracle compares every pair of types whose
lengths differ by at most one. The corpus oracles work on :class:`Line`
records, as the library did before its corpus became columnar: the parse
oracles build one token per occurrence, the normalization oracle segments
every occurrence, and the page filter and shuffle oracles cut and permute
the records; the library's ``Corpus.lines`` view and its columns (``words``,
``counts``, ``graphemes``) must match them. ``assemble_corpus`` builds a
library corpus from such records. The generator oracles
call the source kernel once per candidate, rebuild each distribution's
weights per draw and refilter the mutation kinds per edit, all drawing with
``rng.choices``, ``randrange`` and ``choice``; the library's tables built
once per ``generate`` call must match them RNG call for RNG call. The
positional-stats oracle counts token by token over ``Corpus.lines``, where
the library counts once per type and once per line. Apart from the kernel
store and the corpus and report record classes, none shares code with the
library internals it checks. The hand-enumerated grid cases live here too,
shared between the unit tests and the acceptance suite, and so does
``batch_distances``, which runs a test's many pairs through the library's
batched distance in one call, and ``id_table``, the library's flat word
store of a list of id sequences.
"""

from __future__ import annotations

import random
import re
import string
import unicodedata
from collections import Counter
from itertools import chain, islice

from selfcite.corpus import Corpus, Line, Locus, ParseError, Token
from selfcite.editdist import (
    Alphabet,
    SegmentationError,
    are_similar,
    bounded_distances,
    word_arrays,
)
from selfcite.generator import SOURCE_BIAS_KERNELS
from selfcite.posstats import PositionalReport, Rate


def oracle_segment(raw: str, alphabet: Alphabet) -> tuple[str, ...]:
    """Longest-match-first segmentation by a character scan: at each
    position the longest inventory grapheme that starts there wins."""
    longest = sorted(alphabet.graphemes, key=len, reverse=True)
    out = []
    pos = 0
    while pos < len(raw):
        grapheme = next((g for g in longest if raw.startswith(g, pos)), None)
        if grapheme is None:
            raise SegmentationError(raw, pos)
        out.append(grapheme)
        pos += len(grapheme)
    return tuple(out)


def naive_distance(a, b, alphabet: Alphabet) -> int:
    """Exponential-time weighted edit distance over grapheme sequences."""
    if isinstance(a, str):
        a = oracle_segment(a, alphabet)
    if isinstance(b, str):
        b = oracle_segment(b, alphabet)
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


def oracle_bounded_distance(
    a: tuple[int, ...], b: tuple[int, ...], bound: int, alphabet: Alphabet
) -> int | None:
    """Exact weighted distance between id sequences if <= bound, else None.

    The scalar form of the library's banded DP, one pair at a time. Strips
    common affixes first (safe because the per-symbol costs form a metric)
    and runs a banded dynamic program on the remainder.
    """
    # canonical (lo, hi) id pairs of distinct graphemes that share a group
    index = {g: i for i, g in enumerate(alphabet.graphemes)}
    similar_pairs = {
        (index[x], index[y]) for group in alphabet.similarity_groups
        for x in group for y in group if index[x] < index[y]
    }
    indel = alphabet.indel_cost
    sub_similar = alphabet.similar_substitution_cost
    sub_dissimilar = alphabet.dissimilar_substitution_cost
    if a == b:
        return 0
    la = len(a)
    lb = len(b)
    if abs(la - lb) * indel > bound:
        return None
    s = 0
    while s < la and s < lb and a[s] == b[s]:
        s += 1
    e = 0
    while e < la - s and e < lb - s and a[la - 1 - e] == b[lb - 1 - e]:
        e += 1
    a = a[s : la - e]
    b = b[s : lb - e]
    la -= s + e
    lb -= s + e
    if la == 0 or lb == 0:
        value = max(la, lb) * indel
        return value if value <= bound else None
    if la == 1 and lb == 1:
        x = a[0]
        y = b[0]
        pair = (x, y) if x < y else (y, x)
        sub = sub_similar if pair in similar_pairs else sub_dissimilar
        value = min(sub, 2 * indel)
        return value if value <= bound else None
    # Banded DP: cells with |i - j| beyond the band cost more than the bound.
    half = bound // indel
    inf = bound + 1
    prev = [j * indel if j <= half else inf for j in range(lb + 1)]
    for i in range(1, la + 1):
        lo = i - half if i - half > 1 else 1
        hi = i + half if i + half < lb else lb
        cur = [inf] * (lb + 1)
        if lo == 1:
            cur[0] = i * indel if i <= half else inf
        ai = a[i - 1]
        best_row = inf
        for j in range(lo, hi + 1):
            bj = b[j - 1]
            if ai == bj:
                cost = prev[j - 1]
            else:
                pair = (ai, bj) if ai < bj else (bj, ai)
                sub = sub_similar if pair in similar_pairs else sub_dissimilar
                cost = prev[j - 1] + sub
            up = prev[j] + indel
            if up < cost:
                cost = up
            left = cur[j - 1] + indel
            if left < cost:
                cost = left
            if cost < inf:
                cur[j] = cost
                if cost < best_row:
                    best_row = cost
        if best_row > bound:
            return None
        prev = cur
    value = prev[lb]
    return value if value <= bound else None


def id_table(words, alphabet: Alphabet):
    """The :func:`word_arrays` flat store of id sequences ``words``."""
    return word_arrays(list(map(len, words)), chain.from_iterable(words), alphabet)


def batch_distances(pairs, alphabet: Alphabet, bound: int | None = None):
    """``edit_distance`` of each grapheme-sequence pair, in one batched call.

    Each distinct sequence is encoded once. Without ``bound`` every value is
    exact (the bound is the largest ``(len(a) + len(b)) * indel`` of the
    batch); with it, a distance above ``bound`` comes back as None.
    """
    import numpy as np

    ids: dict[tuple, int] = {}
    a = [ids.setdefault(tuple(x), len(ids)) for x, _ in pairs]
    b = [ids.setdefault(tuple(y), len(ids)) for _, y in pairs]
    if bound is None:
        longest = max((len(x) + len(y) for x, y in pairs), default=0)
        bound = longest * alphabet.indel_cost
    codes = bounded_distances(
        id_table([alphabet.encode(seq) for seq in ids], alphabet),
        np.array(a, dtype=np.intp),
        np.array(b, dtype=np.intp),
        bound,
        alphabet,
    )
    return [d if d <= bound else None for d in codes.tolist()]


def brute_force_grid_counts(
    corpus: Corpus,
    alphabet: Alphabet,
    max_line_offset: int,
    max_pos_offset: int,
    target_distance: int,
    drop_line_edges: bool = False,
    distance=naive_distance,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Recount every windowed pair with plain nested loops.

    Returns {(line_offset, pos_offset): (pair_count, match_count)} using
    ``distance(a, b, alphabet)`` of two grapheme tuples for the match test,
    the naive recursive distance unless given, computed once per pair of
    words (it is symmetric). Only sensible for small corpora.
    """
    lines = [[tok.graphemes or oracle_segment(tok.raw, alphabet) for tok in line.tokens]
             for line in corpus.lines]
    counts: dict[tuple[int, int], list[int]] = {}
    distances: dict[tuple, int] = {}
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
                    pair = (word, other[p]) if word <= other[p] else (other[p], word)
                    if pair not in distances:
                        distances[pair] = distance(*pair, alphabet)
                    if distances[pair] == target_distance:
                        cell[1] += 1
    return {k: (v[0], v[1]) for k, v in counts.items()}


def bucket_edges(nodes: dict[str, tuple[str, ...]], alphabet: Alphabet):
    """Distance-1 edges by comparing types in adjacent length buckets."""
    by_length: dict[int, list[str]] = {}
    for word, seq in nodes.items():
        by_length.setdefault(len(seq), []).append(word)
    candidates = []
    for length, words in by_length.items():
        words = sorted(words)
        for bucket in (words, by_length.get(length + 1, ())):
            same = bucket is words
            for x, a in enumerate(words):
                others = bucket[x + 1 :] if same else bucket
                candidates.extend((a, b) for b in others)
    distances = batch_distances(
        [(nodes[a], nodes[b]) for a, b in candidates], alphabet, bound=1
    )
    return {
        (a, b) if a < b else (b, a)
        for (a, b), d in zip(candidates, distances)
        if d == 1
    }


_ORACLE_LOCUS = re.compile(r"<([^<>.;,\s]+)\.([^<>.;,\s]+)\.(\d+)(?:;[^<>]*)?>")
_ORACLE_EDGE_PUNCT = string.punctuation + "‘’“”«»–—…"


def assemble_corpus(records) -> Corpus:
    """The library corpus of (locus, tokens, paragraph id) line records given
    in source order; a word's graphemes are those of its first occurrence."""
    types: dict[str, int] = {}  # raw word -> type id
    rows = [(locus, [types.setdefault(t.raw, len(types)) for t in tokens], para_id)
            for locus, tokens, para_id in records]
    first = {t.raw: t.graphemes for _, tokens, _ in reversed(records) for t in reversed(tokens)}
    return Corpus.from_rows(rows, types, list(map(first.__getitem__, types)))


def _oracle_lines(records) -> tuple[Line, ...]:
    """Lines of (locus, tokens, paragraph id) records in source order, each
    flagged paragraph-initial or -final from its neighbours' paragraph ids."""
    return tuple(
        Line(locus, tokens, n == 0 or records[n - 1][2] != para_id,
             n == len(records) - 1 or records[n + 1][2] != para_id, para_id)
        for n, (locus, tokens, para_id) in enumerate(records)
    )


def oracle_parse_transliteration(text: str, units: frozenset[str] | None = None):
    """Transliteration parsing into lines, a fresh token for every occurrence."""
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
        if units is not None and locus.unit_kind not in units:
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
    return _oracle_lines(records)


def oracle_parse_plaintext(text: str):
    """Plaintext parsing into lines, a fresh token for every occurrence."""
    records = []
    para_id = 0
    pending_break = False
    for raw_line in unicodedata.normalize("NFC", text).splitlines():
        if not raw_line.strip():
            pending_break = True
            continue
        words = [w.strip(_ORACLE_EDGE_PUNCT).casefold() for w in raw_line.split()]
        tokens = tuple(Token(w) for w in words if w)
        if not tokens:
            pending_break = True
            continue
        if pending_break and records:
            para_id += 1
        pending_break = False
        records.append((Locus("text", "L", len(records) + 1, ""), tokens, para_id))
    if not records:
        raise ValueError("empty corpus")
    return _oracle_lines(records)


def oracle_normalize(lines, alphabet: Alphabet, min_graphemes: int):
    """Normalization of lines, segmenting every token occurrence on its own."""
    kept = []
    for line in lines:
        tokens = []
        for token in line.tokens:
            graphemes = oracle_segment(token.raw, alphabet)
            if len(graphemes) >= min_graphemes:
                tokens.append(token._replace(graphemes=graphemes))
        if tokens:
            kept.append((line.locus, tuple(tokens), line.paragraph_id))
    if not kept:
        raise ValueError("empty corpus")
    return _oracle_lines(kept)


def oracle_filter_pages(lines, pages):
    """The lines on ``pages``, reflagged as adjacent lines."""
    kept = [(line.locus, line.tokens, line.paragraph_id)
            for line in lines if line.locus.page in pages]
    if not kept:
        raise ValueError("no lines match")
    return _oracle_lines(kept)


def oracle_shuffle_control(lines, rng_seed: int):
    """Every token shuffled as one list, then cut back into the lines."""
    tokens = [token for line in lines for token in line.tokens]
    random.Random(rng_seed).shuffle(tokens)
    shuffled = iter(tokens)
    return tuple(line._replace(tokens=tuple(islice(shuffled, len(line.tokens))))
                 for line in lines)


def oracle_type_rows(lines):
    """(raw word, count, graphemes of its first occurrence) per word type of
    ``lines``, in order of first occurrence."""
    counts: dict[str, list] = {}
    for line in lines:
        for token in line.tokens:
            counts.setdefault(token.raw, [0, token.graphemes])[0] += 1
    return [(raw, n, graphemes) for raw, (n, graphemes) in counts.items()]


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
            weights.append(kernel(i, p - m))
    if not candidates:
        return None
    return rng.choices(candidates, weights)[0]


def oracle_mutate(seq, rng, alphabet, params, insertable):
    """One edit, filtering the mutation kinds and drawing with
    ``rng.choices(kinds, weights)`` on every call."""
    partners = alphabet.similar_partners
    kinds = []
    weights = []
    for kind, weight in params.mutation_kind_weights:
        if weight <= 0:
            continue
        if kind == "delete" and len(seq) <= 1:
            continue
        if kind == "substitute_similar" and not any(partners[g] for g in seq):
            continue
        kinds.append(kind)
        weights.append(weight)
    if not kinds:
        kinds, weights = ["insert"], [1.0]
    kind = rng.choices(kinds, weights)[0]
    if kind == "insert":
        pos = rng.randrange(len(seq) + 1)
        return seq[:pos] + (rng.choice(insertable),) + seq[pos:]
    if kind == "delete":
        pos = rng.randrange(len(seq))
        return seq[:pos] + seq[pos + 1 :]
    eligible = [i for i, g in enumerate(seq) if partners[g]]
    pos = rng.choice(eligible)
    return seq[:pos] + (rng.choice(partners[seq[pos]]),) + seq[pos + 1 :]


def oracle_draw(rng, distribution) -> int:
    """Distribution draw rebuilding the value and weight lists each call."""
    values = [k for k, _ in distribution]
    weights = [v for _, v in distribution]
    return rng.choices(values, weights)[0]


def oracle_subgroup(b, a, contiguous: bool) -> bool:
    """b's graphemes inside a's, in order: as one run, or as any subsequence."""
    if contiguous:
        return any(a[i : i + len(b)] == b for i in range(len(a) - len(b) + 1))
    rest = iter(a)
    return all(g in rest for g in b)


def oracle_positional_stats(corpus: Corpus, gallows, prefixes, line_final_glyphs,
                            contiguous_subgroup: bool = True) -> PositionalReport:
    """The positional report counted token by token over ``corpus.lines``."""
    para_first = [0, 0]
    line_first = [0, 0]
    line_internal = [0, 0]
    final_hits = Counter()
    final_totals = Counter()
    total_len = 0
    total_tokens = 0
    parafirst_len = 0
    parafirst_tokens = 0
    second = {"shorter": 0, "longer": 0, "pairs": 0, "subgroup": 0}
    internal_sub = [0, 0]

    for line in corpus.lines:
        if not line.tokens:
            continue
        words = [token.graphemes for token in line.tokens]
        for m, word in enumerate(words):
            total_len += len(word)
            total_tokens += 1
            if line.paragraph_initial:
                parafirst_len += len(word)
                parafirst_tokens += 1
            bucket = line_first if m == 0 else line_internal
            bucket[1] += 1
            if word[0] in prefixes:
                bucket[0] += 1
            last_of_line = m == len(words) - 1
            for k, g in enumerate(word):
                if g in line_final_glyphs:
                    final_totals[g] += 1
                    if last_of_line and k == len(word) - 1:
                        final_hits[g] += 1
            if m >= 2:
                internal_sub[1] += 1
                if oracle_subgroup(word, words[m - 1], contiguous_subgroup):
                    internal_sub[0] += 1
        if line.paragraph_initial:
            para_first[1] += 1
            if words[0][0] in gallows:
                para_first[0] += 1
        if len(words) >= 2:
            second["pairs"] += 1
            if len(words[1]) < len(words[0]):
                second["shorter"] += 1
            elif len(words[1]) > len(words[0]):
                second["longer"] += 1
            if oracle_subgroup(words[1], words[0], contiguous_subgroup):
                second["subgroup"] += 1

    return PositionalReport(
        paragraph_initial_gallows_rate=Rate(para_first[0], para_first[1]),
        line_initial_prefix_rate=Rate(line_first[0], line_first[1]),
        line_internal_prefix_rate=Rate(line_internal[0], line_internal[1]),
        line_final_rates={
            g: Rate(final_hits[g], final_totals[g]) for g in sorted(line_final_glyphs)
        },
        mean_token_length_overall=total_len / total_tokens,
        mean_token_length_paragraph_first_lines=(
            parafirst_len / parafirst_tokens if parafirst_tokens else float("nan")
        ),
        token_count=total_tokens,
        paragraph_first_line_token_count=parafirst_tokens,
        second_shorter_rate=Rate(second["shorter"], second["pairs"]),
        second_longer_rate=Rate(second["longer"], second["pairs"]),
        second_word_subgroup_rate=Rate(second["subgroup"], second["pairs"]),
        internal_subgroup_rate=Rate(internal_sub[0], internal_sub[1]),
    )


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
