import copy
import itertools
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcite import editdist
from selfcite.cooccur import MAX_OFFSET, GridSpec
from selfcite.corpus import Locus, Token
from selfcite.generator import GeneratorParams
from selfcite.editdist import (
    Alphabet,
    CheckedRecord,
    SegmentationError,
    are_similar,
    bounded_distances,
    edit_distance,
)

from helpers import (
    batch_distances,
    id_table,
    naive_distance,
    oracle_bounded_distance,
    oracle_segment,
)


VMS_LIKE = Alphabet(
    graphemes=("ch", "sh", "a", "c", "d", "e", "f", "h", "k", "l", "n", "o",
               "p", "q", "r", "s", "t", "y"),
    similarity_groups=(frozenset({"a", "o"}), frozenset({"o", "y"}),
                       frozenset({"k", "t", "p", "f"})),
    similar_substitution_cost=1,
    dissimilar_substitution_cost=2,
    indel_cost=1,
)

PLAIN = Alphabet.single_characters("abcdefghijklmnopqrstuvwxyz")

TINY = Alphabet(
    graphemes=("a", "b", "c"),
    similarity_groups=(frozenset({"a", "b"}),),
    dissimilar_substitution_cost=2,
)


def tiny_strings(max_len=4):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(TINY.graphemes, repeat=n))
    return out


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def test_are_similar_basic():
    assert are_similar("o", "a", VMS_LIKE)
    assert are_similar("a", "o", VMS_LIKE)
    assert are_similar("o", "o", VMS_LIKE)
    assert not are_similar("q", "d", VMS_LIKE)


def test_similarity_is_per_group_not_transitive():
    # o is similar to both a and y, but a and y share no group
    assert are_similar("o", "y", VMS_LIKE)
    assert are_similar("o", "a", VMS_LIKE)
    assert not are_similar("a", "y", VMS_LIKE)


def test_are_similar_unknown_grapheme():
    with pytest.raises(ValueError, match="unknown grapheme"):
        are_similar("o", "zz", VMS_LIKE)


# ---------------------------------------------------------------------------
# alphabet validation and segmentation
# ---------------------------------------------------------------------------

def test_alphabet_rejects_bad_configs():
    with pytest.raises(ValueError, match="duplicate"):
        Alphabet(graphemes=("a", "a"))
    with pytest.raises(ValueError, match="outside the inventory"):
        Alphabet(graphemes=("a",), similarity_groups=(frozenset({"a", "b"}),))
    with pytest.raises(ValueError, match="positive integer"):
        Alphabet(graphemes=("a", "b"), indel_cost=0)
    with pytest.raises(ValueError, match="at most twice"):
        Alphabet(graphemes=("a", "b"), dissimilar_substitution_cost=3,
                 indel_cost=1)
    with pytest.raises(ValueError, match="must not exceed"):
        Alphabet(graphemes=("a", "b"), similar_substitution_cost=2,
                 dissimilar_substitution_cost=1, indel_cost=1)


def test_segment_longest_match_first():
    assert VMS_LIKE.segment("chy") == ("ch", "y")
    assert VMS_LIKE.segment("chedy") == ("ch", "e", "d", "y")
    assert VMS_LIKE.segment("shol") == ("sh", "o", "l")
    # "c" followed by "t" cannot start "ch", so singles win
    assert VMS_LIKE.segment("cthy") == ("c", "t", "h", "y")


def test_segment_unknown_character():
    with pytest.raises(SegmentationError) as exc:
        VMS_LIKE.segment("qx")
    assert "qx" in str(exc.value)
    assert "'x'" in str(exc.value)
    assert exc.value.position == 1


@given(st.lists(st.sampled_from(VMS_LIKE.graphemes), min_size=1, max_size=12))
def test_segment_round_trip_is_stable(graphemes):
    raw = "".join(graphemes)
    first = VMS_LIKE.segment(raw)
    assert "".join(first) == raw
    assert VMS_LIKE.segment(raw) == first


# graphemes that share prefixes, graphemes special to a regex, and characters
# that no inventory drawn from the pool holds
SEGMENT_POOL = ("c", "ch", "cth", "ckh", "sh", "h", "t", "k", "s", "a",
                ".", "*", "+", "(", "\\")
OUTSIDE = ("x", ")", "?", "\n")


def _segmented(segment, raw):
    """``segment(raw)``, or the text and position of the error it raises."""
    try:
        return segment(raw)
    except SegmentationError as exc:
        return str(exc), exc.position


@given(st.lists(st.sampled_from(SEGMENT_POOL), min_size=1, unique=True), st.data())
def test_segment_matches_the_character_scan(inventory, data):
    alphabet = Alphabet(graphemes=tuple(inventory))
    piece = st.sampled_from(inventory) | st.sampled_from(SEGMENT_POOL + OUTSIDE)
    raw = "".join(data.draw(st.lists(piece, max_size=10)))
    assert _segmented(alphabet.segment, raw) == _segmented(
        lambda word: oracle_segment(word, alphabet), raw)


# ---------------------------------------------------------------------------
# distances: pinned examples
# ---------------------------------------------------------------------------

def test_identity():
    assert edit_distance("chedy", "chedy", VMS_LIKE) == 0


def test_single_grapheme_deletion():
    # "ch" is one grapheme, so chol -> ol is one edit
    assert edit_distance("chol", "ol", VMS_LIKE) == 1


def test_similar_substitution_costs_one():
    assert edit_distance("chon", "chan", VMS_LIKE) == 1


def test_dissimilar_substitution_costs_two():
    assert edit_distance("chon", "chdn", VMS_LIKE) == 2


def test_plain_profile_single_letter_change():
    assert edit_distance("the", "thy", PLAIN) == 1


# ---------------------------------------------------------------------------
# oracle equivalence and metric properties
# ---------------------------------------------------------------------------

def test_exhaustive_oracle_equivalence_tiny_alphabet():
    strings = tiny_strings(4)
    pairs = [(a, b) for i, a in enumerate(strings) for b in strings[i:]]
    for (a, b), d in zip(pairs, batch_distances(pairs, TINY)):
        assert d == naive_distance(a, b, TINY), (a, b)


def _random_seq(rng, alphabet, max_len=6):
    return tuple(rng.choice(alphabet.graphemes)
                 for _ in range(rng.randrange(max_len + 1)))


def test_symmetry_random_pairs():
    rng = random.Random(1905)
    pairs = [(_random_seq(rng, VMS_LIKE), _random_seq(rng, VMS_LIKE))
             for _ in range(10_000)]
    backward = [(b, a) for a, b in pairs]
    assert batch_distances(pairs, VMS_LIKE) == batch_distances(backward, VMS_LIKE)


def test_identity_and_positivity_random():
    rng = random.Random(7)
    pairs = [(_random_seq(rng, VMS_LIKE), _random_seq(rng, VMS_LIKE))
             for _ in range(2_000)]
    assert set(batch_distances([(a, a) for a, _ in pairs], VMS_LIKE)) == {0}
    for (a, b), d in zip(pairs, batch_distances(pairs, VMS_LIKE)):
        if a != b:
            assert d >= 1


def test_triangle_inequality_random_triples():
    rng = random.Random(99)
    triples = [tuple(_random_seq(rng, VMS_LIKE, 5) for _ in range(3))
               for _ in range(2_000)]
    distances = batch_distances(
        [pair for a, b, c in triples for pair in ((a, b), (b, c), (a, c))],
        VMS_LIKE,
    )
    for dab, dbc, dac in zip(*[iter(distances)] * 3):
        assert dac <= dab + dbc


def test_length_bounds_random():
    rng = random.Random(1234)
    pairs = [(_random_seq(rng, VMS_LIKE), _random_seq(rng, VMS_LIKE))
             for _ in range(2_000)]
    for (a, b), d in zip(pairs, batch_distances(pairs, VMS_LIKE)):
        assert abs(len(a) - len(b)) * VMS_LIKE.indel_cost <= d
        assert d <= (len(a) + len(b)) * VMS_LIKE.indel_cost


def test_band_soundness():
    rng = random.Random(4242)
    cases = [(_random_seq(rng, VMS_LIKE, 7), _random_seq(rng, VMS_LIKE, 7),
              rng.randrange(7)) for _ in range(3_000)]
    exact = batch_distances([(a, b) for a, b, _ in cases], VMS_LIKE)
    for bound in range(7):
        picked = [i for i, case in enumerate(cases) if case[2] == bound]
        banded = batch_distances([cases[i][:2] for i in picked], VMS_LIKE,
                                 bound=bound)
        for i, value in zip(picked, banded):
            true = exact[i]
            if true <= bound:
                assert value == true
            else:
                assert value is None


@st.composite
def alphabet_and_pair(draw):
    indel = draw(st.integers(1, 3))
    dissim = draw(st.integers(1, 2 * indel))
    sim = draw(st.integers(1, dissim))
    alphabet = Alphabet(
        graphemes=("a", "b", "c", "d"),
        similarity_groups=(frozenset({"a", "b"}), frozenset({"c", "d"})),
        similar_substitution_cost=sim,
        dissimilar_substitution_cost=dissim,
        indel_cost=indel,
    )
    seqs = st.lists(st.sampled_from(alphabet.graphemes), max_size=4).map(tuple)
    return alphabet, draw(seqs), draw(seqs)


@given(alphabet_and_pair())
@settings(max_examples=300, deadline=None)
def test_oracle_equivalence_across_cost_profiles(case):
    alphabet, a, b = case
    assert edit_distance(a, b, alphabet) == naive_distance(a, b, alphabet)


# ---------------------------------------------------------------------------
# batched DP against the scalar oracle
# ---------------------------------------------------------------------------

# indel 2 with a dissimilar substitution of 3: the band is bound // 2 wide and
# odd bounds fall between attainable costs
WIDE_INDEL = Alphabet(
    graphemes=("a", "b", "c", "d"),
    similarity_groups=(frozenset({"a", "b"}), frozenset({"c", "d"})),
    similar_substitution_cost=1,
    dissimilar_substitution_cost=3,
    indel_cost=2,
)
BATCH_PROFILES = {"vms_like": VMS_LIKE, "plain": PLAIN, "tiny": TINY,
                  "wide_indel": WIDE_INDEL}


def _batch_words(rng, alphabet, bound):
    """Random id words, some of one grapheme, each followed by a mutated copy
    and by an extension whose length differs by exactly the band half-width;
    returns the words and the (word, derived word) index pairs."""
    n = len(alphabet.graphemes)
    half = bound // alphabet.indel_cost
    words = []
    derived = []
    for k in range(60):
        length = 1 if k < 6 else rng.randrange(1, 8)
        word = tuple(rng.randrange(n) for _ in range(length))
        mutated = list(word)
        for _ in range(rng.randrange(3)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(n)
        extended = word + tuple(rng.randrange(n) for _ in range(half))
        derived += [(len(words), len(words) + 1), (len(words), len(words) + 2)]
        words += [word, tuple(mutated), extended]
    return words, derived


@pytest.mark.parametrize("bound", range(6))
@pytest.mark.parametrize("profile", sorted(BATCH_PROFILES))
def test_batched_distances_match_scalar(profile, bound):
    alphabet = BATCH_PROFILES[profile]
    rng = random.Random(bound)
    words, derived = _batch_words(rng, alphabet, bound)
    same = [(i, i) for i in range(len(words))]
    random_pairs = [(rng.randrange(len(words)), rng.randrange(len(words)))
                    for _ in range(1500)]
    a, b = zip(*(same + derived + random_pairs))
    got = bounded_distances(id_table(words, alphabet), np.array(a), np.array(b),
                            bound, alphabet)
    expected = [
        oracle_bounded_distance(words[i], words[j], bound, alphabet)
        for i, j in zip(a, b)
    ]
    assert got.tolist() == [bound + 1 if d is None else d for d in expected]
    # the derived pairs reach the band's edge: some land within the bound
    assert any(d is not None and d > 0 for d in expected[len(same):]) or bound == 0


def test_pruned_pairs_skip_the_walk(monkeypatch):
    # the length and bitmask bounds settle a pair before the DP, and the
    # cut-off stops a walk whose row minimum exceeds the bound; neither
    # changes a value, so the oracle alone cannot see them
    walks = []
    walk = editdist._band_walk

    def spy(a_rows, *args):
        result = walk(a_rows, *args)
        walks.append((a_rows.shape[1], np.ndim(result)))
        return result

    monkeypatch.setattr(editdist, "_band_walk", spy)
    pairs = [("abcd", "efgh"), ("abcd", "abcdabcd"), ("aaaa", "aabb")]
    assert batch_distances(pairs, PLAIN, bound=1) == [None, None, None]
    # one walk of the last pair only, and it returned the cut-off's scalar
    assert walks == [(1, 0)]


@pytest.mark.parametrize("n_graphemes, row_type", [
    (255, np.uint16), (256, np.uint16), (257, np.uint32),
])
def test_wide_alphabets_match_scalar(n_graphemes, row_type, monkeypatch):
    # a band row holds a first word's id times G plus a second word's id, up
    # to G**2 - 1, which passes 65,535 at 257 graphemes; the flat store holds
    # the ids in the same dtype
    graphemes = tuple(f"g{k}" for k in range(n_graphemes))
    alphabet = Alphabet(graphemes=graphemes, similarity_groups=(
        frozenset(graphemes[-2:]), frozenset((graphemes[0], graphemes[-3]))))
    rows = []
    walk = editdist._band_walk

    def spy(a_rows, b_rows, *args):
        rows.append((a_rows.dtype.type, b_rows.dtype.type))
        return walk(a_rows, b_rows, *args)

    monkeypatch.setattr(editdist, "_band_walk", spy)
    rng = random.Random(n_graphemes)
    ids = (0, 1, 2, n_graphemes - 3, n_graphemes - 2, n_graphemes - 1)
    words = [tuple(rng.choice(ids) for _ in range(rng.randrange(1, 6)))
             for _ in range(40)]
    a, b = np.divmod(np.arange(len(words) ** 2), len(words))
    table = id_table(words, alphabet)
    for bound in (2, 10):
        got = bounded_distances(table, a, b, bound, alphabet)
        assert got.tolist() == [
            bound + 1 if d is None else d
            for d in (oracle_bounded_distance(words[i], words[j], bound, alphabet)
                      for i, j in zip(a, b))
        ]
    assert set(rows) == {(row_type, row_type)}


@st.composite
def flat_store_batch(draw):
    """A profile, a store of short, empty and long words with an edited copy
    after each, pairs of them and a bound."""
    profile = draw(st.sampled_from(["plain", "tiny", "vms_like"]))
    alphabet = BATCH_PROFILES[profile]
    ids = st.integers(0, len(alphabet.graphemes) - 1)
    word = st.lists(ids, max_size=3) | st.lists(ids, min_size=20, max_size=40)
    words = []
    for base in draw(st.lists(word.map(tuple), min_size=1, max_size=8)):
        start = draw(st.integers(0, len(base)))
        stop = draw(st.integers(start, min(len(base), start + 3)))
        insert = tuple(draw(st.lists(ids, max_size=3)))
        words += [base, base[:start] + insert + base[stop:]]
    index = st.integers(0, len(words) - 1)
    copies = [(k, k + 1) for k in range(0, len(words), 2)]
    pairs = copies + draw(st.lists(st.tuples(index, index), max_size=20))
    return alphabet, words, pairs, draw(st.integers(0, 8))


@given(flat_store_batch())
@settings(max_examples=150, deadline=None)
def test_flat_store_reads_past_word_ends_match_scalar(case):
    # a second word's rows run into its neighbours in the store and clip at
    # its ends; no such read may change a value, and an empty word's mask
    # takes no neighbour's bit
    alphabet, words, pairs, bound = case
    store = id_table(words, alphabet)
    assert store[2].tolist() == [sum(1 << b for b in {g % 32 for g in w}) for w in words]
    a, b = map(np.array, zip(*pairs))
    got = bounded_distances(store, a, b, bound, alphabet)
    assert got.tolist() == [
        bound + 1 if d is None else d
        for d in (oracle_bounded_distance(words[i], words[j], bound, alphabet)
                  for i, j in pairs)
    ]


@pytest.mark.parametrize("profile", ["vms_like", "wide_indel"])
@pytest.mark.parametrize("edge", [127, 32767])
def test_bounds_at_a_cost_dtype_edge_match_scalar(profile, edge):
    # a capped cell plus one edit reaches bound + 1 + 2 * indel; at the
    # bound where that is a signed dtype's largest value and at the next one,
    # no cell may wrap (a cost table one value too narrow gave ab -> ba at
    # bound 125 under vms a distance of -128)
    alphabet = BATCH_PROFILES[profile]
    rng = random.Random(edge)
    n = len(alphabet.graphemes)
    words = [tuple(rng.randrange(n) for _ in range(rng.randrange(6))) for _ in range(16)]
    words += [tuple(rng.randrange(n) for _ in range(length)) for length in (50, 70, 140)]
    words += [(0, 1), (1, 0)]
    a, b = np.divmod(np.arange(len(words) ** 2), len(words))
    table = id_table(words, alphabet)
    for bound in (edge - 2 * alphabet.indel_cost - 1, edge - 2 * alphabet.indel_cost):
        got = bounded_distances(table, a, b, bound, alphabet)
        assert got.tolist() == [
            bound + 1 if d is None else d
            for d in (oracle_bounded_distance(words[i], words[j], bound, alphabet)
                      for i, j in zip(a.tolist(), b.tolist()))
        ], bound


def test_cost_tables_are_cached_by_cell_dtype():
    # an exhaustive edit_distance caps its cells at a bound that grows with
    # the words, but the table's values depend on the alphabet alone: every
    # cap of these 40 calls fits int8, so they share one table
    editdist._substitution_costs.cache_clear()
    for n in range(1, 41):
        assert edit_distance(("a",) * n, ("o",) * n, VMS_LIKE) == n
    assert editdist._substitution_costs.cache_info().misses == 1


def test_batched_distances_edge_cases():
    empty = np.empty(0, dtype=np.int64)
    assert bounded_distances(id_table([(0, 1)], TINY), empty, empty, 3,
                             TINY).tolist() == []
    # a bound wider than every word, the empty one included: all exact
    strings = tiny_strings(3)
    a, b = np.divmod(np.arange(len(strings) ** 2), len(strings))
    words = id_table([TINY.encode(s) for s in strings], TINY)
    got = bounded_distances(words, a, b, 40, TINY)
    assert got.tolist() == [
        naive_distance(strings[i], strings[j], TINY) for i, j in zip(a, b)
    ]


@pytest.mark.parametrize("size", [1, 5, 97])
def test_slices_give_the_codes_of_one_slice(size, monkeypatch):
    # the first five pairs are one slice of five that the length bound
    # settles, and a slice of 97 cuts length groups that one slice walks whole
    bound = 2
    rng = random.Random(size)
    words, derived = _batch_words(rng, VMS_LIKE, bound)
    short = next(i for i, w in enumerate(words) if len(w) == 1)
    long = next(i for i, w in enumerate(words) if len(w) > 1 + bound)
    random_pairs = [(rng.randrange(len(words)), rng.randrange(len(words)))
                    for _ in range(600)]
    a, b = map(np.array, zip(*([(short, long)] * 5 + derived + random_pairs)))
    words_table = id_table(words, VMS_LIKE)
    whole = bounded_distances(words_table, a, b, bound, VMS_LIKE)
    assert len(a) <= editdist._SLICE
    assert whole[:5].tolist() == [bound + 1] * 5
    walked = np.flatnonzero(whole <= bound)
    lengths = words_table[1][a[walked]]
    assert any(len(set(walked[lengths == n] // 97)) > 1 for n in set(lengths))
    monkeypatch.setattr(editdist, "_SLICE", size)
    got = bounded_distances(words_table, a, b, bound, VMS_LIKE)
    assert got.dtype == whole.dtype
    assert got.tolist() == whole.tolist() == [
        bound + 1 if d is None else d
        for d in (oracle_bounded_distance(words[i], words[j], bound, VMS_LIKE)
                  for i, j in zip(a, b))
    ]
    empty = np.empty(0, dtype=np.intp)
    assert bounded_distances(words_table, empty, empty, bound, VMS_LIKE).tolist() == []


def test_batch_peak_memory_does_not_grow_with_the_batch():
    # Beside its result, a batch holds one slice's lower bounds, sort and rows
    # at a time: 20k and 160k pairs peak at about 0.7 and 1.6 MB above the
    # result. With those arrays as long as the batch, 160k pairs took 5.4 MB.
    rng = random.Random(5)
    words, _ = _batch_words(rng, VMS_LIKE, 2)
    words_table = id_table(words, VMS_LIKE)
    peaks = []
    for n_pairs in (20_000, 160_000):
        # a word and itself, its mutated copy or its extension
        a = 3 * np.array([rng.randrange(len(words) // 3) for _ in range(n_pairs)])
        b = a + np.arange(n_pairs) % 3
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            codes = bounded_distances(words_table, a, b, 2, VMS_LIKE)
            peaks.append(tracemalloc.get_traced_memory()[1] - base - codes.nbytes)
        finally:
            tracemalloc.stop()
        assert (codes <= 2).mean() > 0.3  # and so ran the DP
    assert max(peaks) < 2_000_000, peaks


def test_long_word_widens_no_other_chunks_band():
    # the band is as wide as the bound or the chunk's longest word, so one
    # unpaired 20,000-id word in the store leaves a bound-300 batch of short
    # words at the peak it has without it; with the band as wide as the
    # longest word anywhere, it peaked 1.7 MB higher
    rng = random.Random(7)
    words, derived = _batch_words(rng, VMS_LIKE, 2)
    pairs = derived + [(rng.randrange(len(words)), rng.randrange(len(words)))
                       for _ in range(2000)]
    a, b = map(np.array, zip(*pairs))
    long = tuple(rng.randrange(len(VMS_LIKE.graphemes)) for _ in range(20_000))
    peaks, results = [], []
    for store, shift in ((words, 0), (words[:90] + [long] + words[90:], 1)):
        table = id_table(store, VMS_LIKE)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results.append(bounded_distances(table, a + shift * (a >= 90),
                                             b + shift * (b >= 90), 300,
                                             VMS_LIKE).tolist())
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert peaks[1] < peaks[0] + 200_000, peaks


def _edited(rng, word, graphemes, edits, max_len):
    """``word`` after ``edits`` random insertions, deletions and
    substitutions, never longer than ``max_len``."""
    word = list(word)
    for _ in range(edits):
        kinds = ["insert"] * (len(word) < max_len) + ["delete", "sub"] * bool(word)
        kind = rng.choice(kinds)
        if kind == "insert":
            word.insert(rng.randrange(len(word) + 1), rng.choice(graphemes))
        elif kind == "delete":
            del word[rng.randrange(len(word))]
        else:
            word[rng.randrange(len(word))] = rng.choice(graphemes)
    return tuple(word)


@pytest.mark.parametrize("a,b", [
    ("abc", "abc"), ("abc", "abcab"), ("cab", "ab"), ("", "ab"), ("", ""),
    ("abcba", "abba"), ("aa", "aaa"),
])
def test_edit_distance_strips_common_affixes(a, b):
    # stripping the shared prefix and suffix may leave either remainder empty
    exact = naive_distance(a, b, PLAIN)
    assert edit_distance(a, b, PLAIN) == exact
    for bound in range(4):
        assert edit_distance(a, b, PLAIN, bound=bound) == (
            exact if exact <= bound else None
        )


def test_edit_distance_matches_oracle_on_long_words():
    # the exhaustive bound is wider than the longest word, so the band is
    # clamped to the words; the small bounds cut off inside them
    rng = random.Random(40)
    exact = []
    for _ in range(60):
        a = tuple(rng.choice(VMS_LIKE.graphemes) for _ in range(rng.randrange(41)))
        b = _edited(rng, a, VMS_LIKE.graphemes, rng.randrange(13), 40)
        ea, eb = VMS_LIKE.encode(a), VMS_LIKE.encode(b)
        widest = (len(a) + len(b)) * VMS_LIKE.indel_cost
        exact.append(edit_distance(a, b, VMS_LIKE))
        assert exact[-1] == oracle_bounded_distance(ea, eb, widest, VMS_LIKE)
        for bound in (0, 1, 3, 7):
            assert edit_distance(a, b, VMS_LIKE, bound=bound) == \
                oracle_bounded_distance(ea, eb, bound, VMS_LIKE), (a, b, bound)
    assert any(0 < d <= 7 for d in exact) and any(d > 7 for d in exact)


# A valid instance of each record that checks its fields, and one bad change.
_CHECKED_EXAMPLES = {
    Locus: (Locus("f1r", "P", 1, "<f1r.P.1>"), {"line_no": 0}),
    Token: (Token("daiin"), {"raw": ""}),
    Alphabet: (TINY, {"indel_cost": 0}),
    GridSpec: (GridSpec(TINY), {"max_pos_offset": MAX_OFFSET + 1}),
    GeneratorParams: (GeneratorParams(), {"copy_probability": 1.5}),
}
# Every subclass of the base, so a record added later without an example above
# fails below; the package's __init__, run by any selfcite import, loads every
# module.
CHECKED_RECORDS = {
    cls.__name__: _CHECKED_EXAMPLES.get(cls) for cls in CheckedRecord.__subclasses__()
}


def test_checked_records_share_the_base_wiring():
    assert set(_CHECKED_EXAMPLES) == set(CheckedRecord.__subclasses__())
    for cls in CheckedRecord.__subclasses__():
        # listed first, so the base's __new__ and _make come before namedtuple's
        assert cls.__mro__[1] is CheckedRecord, cls
        assert "_checked" in vars(cls), cls
        assert not {"__new__", "_replace", "__replace__", "_make"} & set(vars(cls)), cls


@pytest.mark.parametrize("name", CHECKED_RECORDS)
def test_replace_checks_fields_as_the_constructor_does(name):
    record, bad = CHECKED_RECORDS[name]
    with pytest.raises(ValueError) as built:
        type(record)(**{**record._asdict(), **bad})
    # _make takes every field, in order, and checks them as __new__ does
    made = lambda **changes: type(record)._make({**record._asdict(), **changes}.values())
    replacements = [record._replace, made]
    if sys.version_info >= (3, 13):
        replacements.append(lambda **changes: copy.replace(record, **changes))
    for replace in replacements:
        with pytest.raises(ValueError) as replaced:
            replace(**bad)
        assert str(replaced.value) == str(built.value)
        same = replace()
        assert type(same) is type(record) and same == record
    with pytest.raises(ValueError, match="unexpected field names"):
        record._replace(no_such_field=1)
    with pytest.raises(TypeError, match="Expected"):
        type(record)._make(record[1:])


def test_replace_normalizes_as_the_constructor_does():
    alphabet = TINY._replace(graphemes=["a", "b", "c", "d"], similarity_groups=[["a", "d"]])
    assert alphabet.graphemes == ("a", "b", "c", "d")
    assert alphabet.similarity_groups == (frozenset({"a", "d"}),)
    assert Alphabet._make([list(alphabet.graphemes), [["a", "d"]], 1, 2, 1]) == alphabet
    params = GeneratorParams()._replace(line_length_distribution=[["3", 1]])
    assert params.line_length_distribution == ((3, 1.0),)
    made = GeneratorParams._make(
        [["3", 1]] if name == "line_length_distribution" else value
        for name, value in params._asdict().items())
    assert made == params
