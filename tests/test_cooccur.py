import itertools
import random
import tracemalloc

import numpy as np
import pytest

from selfcite import cooccur
from selfcite.cooccur import (
    MAX_OFFSET,
    CooccurrenceGrid,
    GridCell,
    GridSpec,
    compute_grid,
    compute_grids,
    format_percent,
    render_grid,
    summarize_decay,
)
from selfcite.corpus import Locus, Token, normalize, parse_transliteration
from selfcite.editdist import Alphabet, within_lower_bounds
from selfcite.generator import GeneratorParams, generate, shuffle_control
from selfcite.profiles import load_profile

from helpers import (
    HAND_ALPHABETS,
    HAND_GRID_CASES,
    assemble_corpus,
    brute_force_grid_counts,
    oracle_bounded_distance,
)

VMS = load_profile("vms").alphabet


def _corpus(lines, alphabet, min_graphemes=1):
    text = "\n".join(
        f"<p1.P.{i + 1}> {'.'.join(tokens)}" for i, tokens in enumerate(lines)
    )
    return normalize(parse_transliteration(text), alphabet, min_graphemes)


def _segmented(text, segment):
    """The parsed transliteration with each token's graphemes set to
    ``segment(raw)``, so that token-less lines stay (normalize would drop
    them)."""
    return assemble_corpus([
        (line.locus, tuple(token._replace(graphemes=segment(token.raw))
                           for token in line.tokens), line.paragraph_id)
        for line in parse_transliteration(text).lines
    ])


def _counts(grid):
    """Every window cell's (pairs, matches), an absent cell read as (0, 0);
    asserts that the grid holds no cell outside its window."""
    spec = grid.spec
    window = [(i, j) for i in range(spec.max_line_offset + 1)
              for j in range(-spec.max_pos_offset, spec.max_pos_offset + 1)
              if i or j < 0]
    assert set(grid.cells) <= set(window)
    counts = {}
    for cell in window:
        gc = grid.cells.get(cell, GridCell())
        counts[cell] = (gc.pair_count, gc.match_count)
    return counts


# ---------------------------------------------------------------------------
# hand-enumerated toy grids (expected values worked out by hand, then
# cross-checked by the independent nested-loop recount)
# ---------------------------------------------------------------------------

XYZ = HAND_ALPHABETS["xyz"]


@pytest.mark.parametrize("name,lines,alphabet_key,kwargs,expected",
                         HAND_GRID_CASES, ids=[c[0] for c in HAND_GRID_CASES])
def test_hand_enumerated_grids(name, lines, alphabet_key, kwargs, expected):
    alphabet = HAND_ALPHABETS[alphabet_key]
    corpus = _corpus(lines, alphabet)
    kwargs = dict(kwargs)
    distance = kwargs.pop("target_distance")
    spec = GridSpec(alphabet=alphabet, **kwargs)
    grid = compute_grid(corpus, spec, distance)
    assert _counts(grid) == expected
    recount = brute_force_grid_counts(
        corpus, alphabet, spec.max_line_offset, spec.max_pos_offset,
        distance, spec.drop_line_edges,
    )
    assert recount == expected


def test_spec_toy_proportions():
    corpus = _corpus([["x", "y"], ["x", "z"]], XYZ)
    spec = GridSpec(alphabet=XYZ, max_line_offset=1, max_pos_offset=1)
    grid = compute_grid(corpus, spec)
    assert grid.proportion(1, 0) == 0.5
    assert grid.proportion(0, -1) == 0.0
    assert grid.proportion(1, -1) == 0.0
    assert grid.proportion(1, 1) == 0.0
    # mean over the three defined row-1 cells: (0 + 0.5 + 0) / 3
    assert grid.row_mean(1) == pytest.approx(1 / 6)


def test_single_line_corpus_has_blank_previous_rows():
    corpus = _corpus([["x", "y", "z"]], XYZ)
    grid = compute_grid(corpus, GridSpec(alphabet=XYZ, max_line_offset=2,
                                         max_pos_offset=1))
    for (i, _), cell in grid.cells.items():
        if i >= 1:
            assert cell.pair_count == 0
            assert cell.proportion is None


def test_token_less_lines_still_count_as_lines():
    # a line with a locus but no tokens shifts the window like any other line
    # (normalize would drop that line, so segment the tokens in place)
    corpus = _segmented("<p1.P.1> x.y\n<p1.P.2>\n<p1.P.3> x.z", XYZ.segment)
    spec = GridSpec(alphabet=XYZ, max_line_offset=2, max_pos_offset=1)
    grid = compute_grid(corpus, spec)
    assert grid.cells[(1, 0)].pair_count == 0
    assert grid.cells[(2, 0)].pair_count == 2
    assert grid.cells[(2, 0)].match_count == 1
    recount = brute_force_grid_counts(corpus, XYZ, 2, 1, 0)
    assert _counts(grid) == recount


def test_corpus_of_token_less_lines_has_no_pairs():
    corpus = _segmented("<p1.P.1>\n<p1.P.2>", XYZ.segment)
    spec = GridSpec(alphabet=XYZ, max_line_offset=2, max_pos_offset=1)
    for grid in compute_grids(corpus, spec, (0, 1)).values():
        assert all(cell.pair_count == 0 for cell in grid.cells.values())


def test_raw_words_with_equal_graphemes_match_at_distance_zero():
    # types are keyed on the raw word, so a hand-built corpus can hold two
    # types spelled alike; their pairs still count as identical
    corpus = _segmented("<p1.P.1> xy.XY.yz\n<p1.P.2> XY.xy",
                        lambda raw: XYZ.segment(raw.lower()))
    grids = compute_grids(corpus, GridSpec(alphabet=XYZ, max_line_offset=1,
                                           max_pos_offset=2), (0, 1, 2))
    for d, grid in grids.items():
        assert _counts(grid) == brute_force_grid_counts(corpus, XYZ, 1, 2, d)
    assert grids[0].cells[(0, -1)].match_count == 2


@pytest.mark.parametrize("lines", [
    [["x"]],                           # no pair at all: an empty batch
    [["x", "x"], ["x", "x", "x"]],     # one type: only equal pairs
    [["x", "xyzxy", "yzyzyzyzy"]],     # no pair survives the length prefilter
], ids=["no_pairs", "one_type", "all_pruned"])
def test_degenerate_corpora_match_brute_force(lines):
    corpus = _corpus(lines, XYZ)
    spec = GridSpec(alphabet=XYZ, max_line_offset=2, max_pos_offset=2)
    grids = compute_grids(corpus, spec, (0, 1))
    for d, grid in grids.items():
        assert _counts(grid) == brute_force_grid_counts(corpus, XYZ, 2, 2, d)


def test_row_zero_right_side_excluded():
    corpus = _corpus([["x", "y"], ["x", "z"]], XYZ)
    grid = compute_grid(corpus, GridSpec(alphabet=XYZ, max_line_offset=1,
                                         max_pos_offset=1))
    assert (0, 0) not in grid.cells
    assert (0, 1) not in grid.cells


def test_empty_corpus_rejected():
    empty = assemble_corpus([])
    with pytest.raises(ValueError, match="no lines"):
        compute_grid(empty, GridSpec(alphabet=XYZ))


def test_negative_distance_rejected():
    corpus = _corpus([["x", "y"]], XYZ)
    with pytest.raises(ValueError, match="must be >= 0"):
        compute_grid(corpus, GridSpec(alphabet=XYZ), -1)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def _random_corpus(rng, alphabet, n_lines, max_line_len, max_word_len=3):
    lines = []
    for _ in range(n_lines):
        length = rng.randrange(1, max_line_len + 1)
        lines.append([
            "".join(rng.choice(alphabet.graphemes)
                    for _ in range(rng.randrange(1, max_word_len + 1)))
            for _ in range(length)
        ])
    return _corpus(lines, alphabet)


@pytest.mark.parametrize("seed", range(6))
def test_conservation_against_brute_force(seed):
    rng = random.Random(seed)
    alphabet = Alphabet.single_characters("abc")
    corpus = _random_corpus(rng, alphabet, n_lines=rng.randrange(2, 12),
                            max_line_len=6)
    assert corpus.token_count() <= 200
    drop = seed % 2 == 1
    d = seed % 3
    spec = GridSpec(alphabet=alphabet, max_line_offset=3, max_pos_offset=2,
                    drop_line_edges=drop)
    grid = compute_grid(corpus, spec, d)
    recount = brute_force_grid_counts(corpus, alphabet, 3, 2, d, drop)
    assert _counts(grid) == recount


# Alphabets whose costs, similarity groups and size the unit-cost cases above
# never reach, with the graphemes their words are drawn from. The 70-grapheme
# inventory folds ids mod 32 in the bitmask bound, so its words mix the
# graphemes whose bits collide (ids 0-3 share bits with ids 32-35 and 64-67).
WIDE = Alphabet.single_characters(chr(0x4E00 + k) for k in range(70))
PREFILTER_ALPHABETS = {
    "indel2_groups": (
        Alphabet(graphemes=tuple("abcdefg"),
                 similarity_groups=(frozenset("abc"), frozenset("de")),
                 similar_substitution_cost=1, dissimilar_substitution_cost=2,
                 indel_cost=2),
        "abcdefg",
    ),
    "groups": (
        Alphabet(graphemes=tuple("abcdef"),
                 similarity_groups=(frozenset("ab"), frozenset("cde")),
                 dissimilar_substitution_cost=2),
        "abcdef",
    ),
    "wide_inventory": (WIDE, WIDE.graphemes[:4] + WIDE.graphemes[32:36]
                       + WIDE.graphemes[64:]),
}


def _near_vocabulary(rng, alphabet, graphemes, bases=3, variants=3, max_len=6):
    """Words of up to ``max_len`` graphemes: bases and variants of them one or
    two random edits away, the first variant by one substitution. A
    substitution picks a similar grapheme where there is one, so that every
    distance up to 3 occurs."""
    words = []
    for _ in range(bases):
        base = [rng.choice(graphemes) for _ in range(rng.randrange(2, max_len + 1))]
        words.append(base)
        for v in range(variants):
            word = list(base)
            for _ in range(1 + v % 2):
                k = rng.randrange(len(word))
                kind = rng.randrange(3) if v else 2
                if kind == 0 and len(word) > 1:
                    del word[k]
                elif kind == 1 and len(word) < max_len:
                    word.insert(k, rng.choice(graphemes))
                else:
                    similar = alphabet.similar_partners[word[k]]
                    word[k] = rng.choice(similar or graphemes)
            words.append(word)
    return ["".join(word) for word in words]


@pytest.mark.parametrize("drop", [False, True], ids=["all", "drop_edges"])
@pytest.mark.parametrize("name", sorted(PREFILTER_ALPHABETS))
def test_prefilter_conservation_against_brute_force(name, drop):
    # the length and bitmask prefilters and the tally only within the largest
    # distance must lose no pair, for every distance together and alone
    alphabet, graphemes = PREFILTER_ALPHABETS[name]
    rng = random.Random(name)
    vocabulary = _near_vocabulary(rng, alphabet, graphemes)
    lines = [[rng.choice(vocabulary) for _ in range(rng.randrange(1, 9))]
             for _ in range(12)]
    corpus = _corpus(lines, alphabet)
    spec = GridSpec(alphabet=alphabet, max_line_offset=3, max_pos_offset=2,
                    drop_line_edges=drop)
    together = compute_grids(corpus, spec, (0, 1, 2, 3))
    for d in (0, 1, 2, 3):
        recount = brute_force_grid_counts(corpus, alphabet, 3, 2, d, drop)
        assert _counts(together[d]) == recount, d
        assert _counts(compute_grid(corpus, spec, d)) == recount, d
        assert any(match for _, match in recount.values()), d


@pytest.mark.parametrize("drop", [False, True], ids=["all", "drop_edges"])
@pytest.mark.parametrize("rows,cols", [(3, 5), (8, 2), (9, 7), (40, 60)],
                         ids=["widest_line", "all_lines", "both_beyond", "far_beyond"])
def test_windows_beyond_the_corpus_match_brute_force(rows, cols, drop):
    # a window as wide as the widest line reaches past a line's start into
    # the previous line's padding, and one as deep as the corpus past its
    # first line; lines are of unequal length, single-token and token-less
    alphabet, graphemes = PREFILTER_ALPHABETS["groups"]
    rng = random.Random(rows * 10 + cols)
    vocabulary = _near_vocabulary(rng, alphabet, graphemes)
    text = "\n".join(
        f"<p1.P.{k + 1}>" + (" " if n else "")
        + ".".join(rng.choice(vocabulary) for _ in range(n))
        for k, n in enumerate([5, 1, 0, 3, 2, 4, 1, 5])
    )
    corpus = _segmented(text, alphabet.segment)
    spec = GridSpec(alphabet=alphabet, max_line_offset=rows, max_pos_offset=cols,
                    drop_line_edges=drop)
    for d, grid in compute_grids(corpus, spec, (0, 1, 2)).items():
        recount = brute_force_grid_counts(corpus, alphabet, rows, cols, d, drop)
        assert _counts(grid) == recount, d


def test_cells_past_the_data_are_skipped(monkeypatch):
    # rows past the last line and columns past the widest line hold no pair,
    # so the grid holds, and the bounds run on, only the 2 + 5 cells of rows
    # 0 and 1 with |j| < 3
    calls = []

    def counted(*args):
        calls.append(args)
        return within_lower_bounds(*args)

    monkeypatch.setattr(cooccur, "within_lower_bounds", counted)
    corpus = _corpus([["x", "yx", "z"], ["xy", "z"]], XYZ)
    spec = GridSpec(alphabet=XYZ, max_line_offset=50, max_pos_offset=40)
    grid = compute_grid(corpus, spec, 1)
    assert len(calls) == 7
    assert len(grid.cells) == 7
    assert _counts(grid) == brute_force_grid_counts(corpus, XYZ, 50, 40, 1)


def test_absent_cell_has_no_proportion():
    corpus = _corpus([["x", "y"], ["x", "z"]], XYZ)
    grid = compute_grid(corpus, GridSpec(alphabet=XYZ, max_line_offset=3,
                                         max_pos_offset=3))
    assert (3, 0) not in grid.cells and (1, 3) not in grid.cells
    assert grid.proportion(3, 0) is None
    assert grid.proportion(1, 3) is None
    assert grid.proportion(0, 1) is None


def test_window_at_the_bound_allocates_by_the_data():
    # a 1000 x 1000 window over 3 lines: the cells follow the data, so the
    # grid costs kilobytes; only the rendered table has one entry per cell
    corpus = _corpus([["x", "yx", "z"], ["xy", "z"], ["z", "x", "y", "x"]], XYZ)
    spec = GridSpec(alphabet=XYZ, max_line_offset=MAX_OFFSET, max_pos_offset=MAX_OFFSET)
    compute_grids(corpus, spec._replace(max_line_offset=2, max_pos_offset=2), (0, 1))
    tracemalloc.start()
    try:
        grids = compute_grids(corpus, spec, (0, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert len(grids[0].cells) == 3 + 2 * 7
    rows = render_grid(grids[1], "csv").decode().splitlines()
    assert len(rows) == 1 + MAX_OFFSET + 1
    assert {row.count(",") for row in rows} == {2 * MAX_OFFSET + 1}


@pytest.mark.parametrize("field", ["max_line_offset", "max_pos_offset"])
def test_library_window_shares_the_cli_bound(field):
    # the library, the CLI and the profiles share one window bound
    for value in (0, MAX_OFFSET + 1, 100_000):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1 and <= {MAX_OFFSET}"):
            GridSpec(alphabet=XYZ, **{field: value})
    assert getattr(GridSpec(alphabet=XYZ, **{field: MAX_OFFSET}), field) == MAX_OFFSET


def test_huge_distance_allocates_by_the_data():
    # the tally holds a slot per requested distance, not one per distance up
    # to the largest: at 10**6 that took 8 MB per cell
    corpus = _corpus([["x", "xy", "y"], ["yz", "x", "zz"]], XYZ)
    spec = GridSpec(alphabet=XYZ, max_line_offset=2, max_pos_offset=2)
    compute_grids(corpus, spec, (0, 1))  # numpy's lazy set-up, outside the trace
    tracemalloc.start()
    try:
        grids = compute_grids(corpus, spec, (0, 2, 10**6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
    for d, grid in grids.items():
        assert _counts(grid) == brute_force_grid_counts(corpus, XYZ, 2, 2, d), d


def test_long_types_reach_the_store_without_a_tuple_of_their_ids():
    # 200 types of 1,000 to 1,199 graphemes: their 219,900 grapheme ids
    # went to the flat store through one tuple, 8 bytes a grapheme beside
    # the store's 2, and the grid peaked at 4.0 MB traced; fed lazily, 2.3 MB
    alphabet = Alphabet.single_characters("abcd")
    rng = random.Random(5)
    words = ["".join(rng.choices("abcd", k=1000 + k)) for k in range(200)]
    lines = [tuple(Token(w, tuple(w)) for w in words[n : n + 10]) for n in range(0, 200, 10)]
    corpus = assemble_corpus([(Locus("p1", "P", n, ""), tokens, 0)
                              for n, tokens in enumerate(lines, start=1)])
    spec = GridSpec(alphabet=alphabet)
    compute_grids(corpus, spec, (0,))  # numpy's lazy set-up, outside the trace
    tracemalloc.start()
    try:
        grid = compute_grids(corpus, spec, (0,))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak
    assert sum(cell.match_count for cell in grid.cells.values()) == 0
    with pytest.raises(ValueError, match="^unknown grapheme 'd'$"):
        compute_grids(corpus, spec._replace(alphabet=Alphabet.single_characters("abc")), (0,))


def test_long_tokens_keep_their_lengths():
    # two 40,000-grapheme words one substitution apart: lengths past any
    # 16-bit range must still meet the length bound (the naive recount
    # cannot run on words this long)
    alphabet = Alphabet.single_characters("ab")
    word = "a" * 40_000
    other = word[:20_000] + "b" + word[20_001:]
    corpus = _corpus([[word, other]], alphabet)
    spec = GridSpec(alphabet=alphabet, max_line_offset=1, max_pos_offset=1)
    cell = compute_grid(corpus, spec, 1).cells[(0, -1)]
    assert (cell.pair_count, cell.match_count) == (1, 1)


# Pair keys ``lo * n_types + hi`` and their sentinel ``n_types**2`` are held
# in the smallest signed dtype that holds the sentinel: the cases sit on both
# sides of each step.
@pytest.mark.parametrize("n_types, key_type", [
    (11, np.int8), (12, np.int16), (181, np.int16), (182, np.int32),
])
def test_pair_key_dtype_steps_match_brute_force(n_types, key_type):
    alphabet = Alphabet.single_characters("abcdef")
    vocabulary = ["".join(w) for n in (1, 2, 3)
                  for w in itertools.product(alphabet.graphemes, repeat=n)]
    rng = random.Random(n_types)
    words = rng.sample(vocabulary, n_types)
    tokens = words + [rng.choice(words) for _ in range(n_types)]
    lines = []
    while tokens:
        lines.append(tokens[:rng.randrange(1, 7)])
        del tokens[:len(lines[-1])]
    corpus = _corpus(lines, alphabet)
    assert len(corpus.words) == n_types
    assert cooccur._key_dtype(n_types) == key_type
    spec = GridSpec(alphabet=alphabet, max_line_offset=3, max_pos_offset=2)
    for d, grid in compute_grids(corpus, spec, (1, 2)).items():
        recount = brute_force_grid_counts(corpus, alphabet, 3, 2, d)
        assert _counts(grid) == recount, d
        assert any(match for _, match in recount.values()), d


def test_pair_keys_of_46341_types_are_int64():
    # 46,341**2 is past the int32 range, though every real key fits in it.
    # Token-less lines keep all but the last two lines out of each other's
    # windows, so the recount stays small; those two pair the highest ids.
    alphabet = Alphabet.single_characters("abcdefghijklmnopqrstuvwxyz0123456789")
    words = ["".join(w) for w in itertools.islice(
        itertools.product(alphabet.graphemes, repeat=3), 46_341)]
    rows = [row for w in words[:-12] for row in ((w,), ())]
    rows += [words[-12:-6], words[-6:]]
    corpus = assemble_corpus([
        (Locus("p1", "P", k + 1, ""), tuple(Token(w, tuple(w)) for w in row), k)
        for k, row in enumerate(rows)
    ])
    assert len(corpus.words) == 46_341
    assert cooccur._key_dtype(46_341) == np.int64
    spec = GridSpec(alphabet=alphabet, max_line_offset=1, max_pos_offset=1)
    recount = brute_force_grid_counts(corpus, alphabet, 1, 1, 1)
    assert _counts(compute_grid(corpus, spec, 1)) == recount
    assert any(match for _, match in recount.values())


def test_distance_past_255_matches_brute_force():
    # costs in the hundreds: a window pair's distance code reaches 301
    # (beyond the bound), so the kernel returns uint16 codes
    alphabet = Alphabet(graphemes=tuple("abcd"), similarity_groups=(frozenset("ab"),),
                        similar_substitution_cost=150,
                        dissimilar_substitution_cost=200, indel_cost=100)
    rng = random.Random(300)
    corpus = _random_corpus(rng, alphabet, n_lines=10, max_line_len=5)
    spec = GridSpec(alphabet=alphabet, max_line_offset=3, max_pos_offset=2)
    for d, grid in compute_grids(corpus, spec, (150, 200, 300)).items():
        recount = brute_force_grid_counts(corpus, alphabet, 3, 2, d)
        assert _counts(grid) == recount, d
        assert any(match for _, match in recount.values()), d


@pytest.mark.parametrize("d", [124, 125])
def test_distance_at_a_cost_dtype_edge_matches_brute_force(d):
    # a dissimilar substitution costs 2 * indel, so the kernel's cells reach
    # d + 1 + 2, the largest value of int8 at d = 124 and one past it at 125;
    # runs of a and b sit at exactly these distances (a wrapped cell turned
    # such a match into a miss). test_editdist covers the int16 edge.
    alphabet = Alphabet(graphemes=("a", "b"))
    rng = random.Random(d)
    lines = [["".join(rng.choice("ab") for _ in range(rng.choice((1, 2, 3, 61, 63))))
              for _ in range(rng.randrange(1, 4))] for _ in range(6)]
    lines[2] += ["a" * 62, "b" * 62]
    lines[3] += ["ab", "b" * 63]
    corpus = _corpus(lines, alphabet)
    spec = GridSpec(alphabet=alphabet, max_line_offset=2, max_pos_offset=2)

    def distance(x, y, alphabet):
        return oracle_bounded_distance(alphabet.encode(x), alphabet.encode(y), d, alphabet)

    recount = brute_force_grid_counts(corpus, alphabet, 2, 2, d, distance=distance)
    assert _counts(compute_grids(corpus, spec, (d,))[d]) == recount
    assert any(match for _, match in recount.values())


def test_grid_peak_memory_is_bounded():
    # tracemalloc sees numpy's buffers. With the flat word store and band
    # rows in uint16 and pair keys in int32, this book's grids peak at about
    # 1.2 MB above their inputs; with intp tables and rows and int64 keys
    # they peaked at 2.4 MB.
    corpus = normalize(generate(GeneratorParams(
        target_token_count=3000, rng_seed=1), VMS), VMS)
    spec = GridSpec(alphabet=VMS)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_grids(corpus, spec, (0, 1, 2))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000, peak


def test_long_word_grid_peak_memory_is_small():
    # the flat word store grows with the graphemes of the types, not with
    # types x the widest word: one 20,000-grapheme word among 300 short-word
    # lines peaks at about 0.46 MB, against 0.26 MB without it; a table
    # padded to that word and its fill mask peaked at 16 MB
    alphabet = Alphabet.single_characters("abcdef")
    rng = random.Random(3)
    lines = [["".join(rng.choice("abcdef") for _ in range(rng.randrange(1, 5)))
              for _ in range(rng.randrange(1, 6))] for _ in range(300)]
    long = "".join(rng.choice("abcdef") for _ in range(20_000))
    corpus = _corpus(lines[:150] + [[long]] + lines[150:], alphabet)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        compute_grids(corpus, GridSpec(alphabet=alphabet), (1,))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_partition_consistency_multi_distance():
    rng = random.Random(11)
    alphabet = Alphabet.single_characters("abcd")
    corpus = _random_corpus(rng, alphabet, n_lines=15, max_line_len=7)
    spec = GridSpec(alphabet=alphabet, max_line_offset=4, max_pos_offset=3)
    together = compute_grids(corpus, spec, (0, 1, 2))
    for d in (0, 1, 2):
        single = compute_grid(
            corpus, GridSpec(alphabet=alphabet, max_line_offset=4, max_pos_offset=3), d
        )
        assert _counts(together[d]) == _counts(single)


def test_drop_line_edges_only_removes_pairs():
    rng = random.Random(3)
    alphabet = Alphabet.single_characters("ab")
    corpus = _random_corpus(rng, alphabet, n_lines=12, max_line_len=6)
    base = compute_grid(corpus, GridSpec(alphabet=alphabet))
    dropped = compute_grid(corpus, GridSpec(alphabet=alphabet,
                                            drop_line_edges=True))
    for cell, gc in dropped.cells.items():
        assert gc.pair_count <= base.cells[cell].pair_count


def test_csv_determinism():
    rng = random.Random(21)
    alphabet = Alphabet.single_characters("abc")
    corpus = _random_corpus(rng, alphabet, n_lines=10, max_line_len=5)
    spec = GridSpec(alphabet=alphabet)
    first = render_grid(compute_grid(corpus, spec, 1), "csv")
    second = render_grid(compute_grid(corpus, spec, 1), "csv")
    assert first == second


def test_shuffle_flattens_proportions():
    params = GeneratorParams(target_token_count=3000, rng_seed=9)
    corpus = generate(params, VMS)
    norm = normalize(corpus, VMS)
    spec = GridSpec(alphabet=VMS)

    def variation(grid):
        values = [c.proportion for (i, _), c in grid.cells.items()
                  if i >= 1 and c.pair_count]
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return var ** 0.5 / mean

    original = variation(compute_grid(norm, spec))
    shuffled = [
        variation(compute_grid(normalize(shuffle_control(corpus, seed), VMS), spec))
        for seed in range(5)
    ]
    assert sum(shuffled) / len(shuffled) < original


# ---------------------------------------------------------------------------
# summarize_decay
# ---------------------------------------------------------------------------

def test_decay_skips_rows_without_data():
    # two lines: only row n-1 has pairs, and no far row to compare it with
    corpus = _corpus([["x", "y"], ["x", "z"]], XYZ)
    grid = compute_grid(corpus, GridSpec(alphabet=XYZ, max_line_offset=9,
                                         max_pos_offset=1))
    means, decays = summarize_decay(grid)
    assert set(means) == {1}
    assert decays is False


def test_decay_constant_rows():
    corpus = _corpus([["a", "a"]] * 6, Alphabet.single_characters("a"))
    grid = compute_grid(corpus, GridSpec(alphabet=Alphabet.single_characters("a"),
                                         max_line_offset=4, max_pos_offset=1))
    means, decays = summarize_decay(grid)
    assert set(means) == {1, 2, 3, 4}
    assert all(m == 1.0 for m in means.values())
    assert not decays  # rows n-7..n-9 are outside the window


def test_decay_toy_single_row_mean():
    corpus = _corpus([["x", "y"], ["x", "z"]] * 4, XYZ)
    grid = compute_grid(corpus, GridSpec(alphabet=XYZ, max_line_offset=4,
                                         max_pos_offset=1))
    means, _ = summarize_decay(grid)
    assert 1 in means and 4 in means


def _grid_from_rows(row_values, max_pos_offset):
    """Build a grid object from published-style row proportions."""
    spec = GridSpec(alphabet=XYZ, max_line_offset=len(row_values),
                    max_pos_offset=max_pos_offset)
    cells = {}
    for i, values in enumerate(reversed(row_values), start=1):
        offsets = range(-max_pos_offset, max_pos_offset + 1)
        for j, value in zip(offsets, values):
            cells[(i, j)] = GridCell(pair_count=100_000,
                                     match_count=round(value * 1000))
    for j in range(-max_pos_offset, 0):
        cells[(0, j)] = GridCell()
    return CooccurrenceGrid(spec=spec, cells=cells)


# identical-word row proportions (percent) as published for the full
# manuscript window, rows n-9 (first) through n-1 (last)
PUBLISHED_IDENTICAL_ROWS = [
    [0.63, 0.52, 0.53, 0.63, 0.59, 0.75, 0.78, 0.82, 0.72, 0.63, 0.60, 0.63, 0.55],
    [0.52, 0.55, 0.69, 0.70, 0.74, 0.68, 0.67, 0.70, 0.74, 0.77, 0.68, 0.62, 0.64],
    [0.48, 0.43, 0.63, 0.70, 0.68, 0.66, 0.74, 0.73, 0.72, 0.74, 0.70, 0.56, 0.60],
    [0.52, 0.53, 0.69, 0.69, 0.75, 0.67, 0.76, 0.71, 0.84, 0.75, 0.69, 0.69, 0.57],
    [0.52, 0.59, 0.58, 0.79, 0.66, 0.80, 0.84, 0.71, 0.75, 0.72, 0.69, 0.60, 0.54],
    [0.67, 0.61, 0.66, 0.78, 0.78, 0.81, 0.83, 0.66, 0.71, 0.69, 0.69, 0.63, 0.44],
    [0.57, 0.66, 0.60, 0.64, 0.69, 0.95, 0.82, 0.79, 0.73, 0.69, 0.66, 0.72, 0.67],
    [0.56, 0.71, 0.73, 0.86, 0.87, 0.89, 0.93, 0.96, 0.92, 0.87, 0.77, 0.67, 0.59],
    [0.73, 0.70, 0.70, 0.74, 0.91, 0.89, 0.99, 0.98, 1.02, 0.80, 0.91, 0.74, 0.79],
]


def test_decay_on_published_row_values():
    grid = _grid_from_rows(PUBLISHED_IDENTICAL_ROWS, max_pos_offset=6)
    means, decays = summarize_decay(grid)
    assert means[1] > means[9]
    assert decays


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_format_percent_half_up():
    assert format_percent(1, 2) == "50.00"
    assert format_percent(0, 7) == "0.00"
    assert format_percent(1, 3) == "33.33"
    assert format_percent(2, 3) == "66.67"
    # exact .xx5 ties round up
    assert format_percent(113, 4000) == "2.83"
    assert format_percent(1, 16) == "6.25"
    assert format_percent(3, 32000) == "0.01"


def _tiny_rendered_grid():
    spec = GridSpec(alphabet=XYZ, max_line_offset=1, max_pos_offset=1)
    cells = {
        (0, -1): GridCell(pair_count=2, match_count=1),
        (1, -1): GridCell(),
        (1, 0): GridCell(pair_count=5, match_count=1),
        (1, 1): GridCell(pair_count=5, match_count=4),
    }
    return CooccurrenceGrid(spec=spec, cells=cells)


def test_csv_layout():
    lines = render_grid(_tiny_rendered_grid(), "csv").decode().splitlines()
    assert lines[0] == ",m-1,m,m+1"
    assert lines[1] == "n-1,,20.00,80.00"
    assert lines[2] == "n,50.00,x,"


def test_markdown_layout():
    text = render_grid(_tiny_rendered_grid(), "markdown").decode()
    assert "| n | 50.00 | x |  |" in text
    assert text.startswith("|  | m-1 | m | m+1 |")


def test_svg_darker_means_higher():
    svg = render_grid(_tiny_rendered_grid(), "svg").decode()
    assert "url(#hatch)" in svg

    def fill_level(pct_title):
        for rect in svg.split("<rect")[1:]:
            if pct_title in rect:
                level = rect.split('fill="rgb(')[1].split(",")[0]
                return int(level)
        raise AssertionError(f"no cell titled {pct_title}")

    assert fill_level("80.00%") < fill_level("20.00%")


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown grid format"):
        render_grid(_tiny_rendered_grid(), "png")
