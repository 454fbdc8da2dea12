import copy
import itertools
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selfcite import editdist
from selfcite.cooccur import MAX_OFFSET, GridSpec
from selfcite.corpus import Locus, Token
from selfcite.generator import GeneratorParams
from selfcite.editdist import (
    Alphabet,
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


@pytest.mark.parametrize("n_graphemes, table_type, row_type", [
    (255, np.uint8, np.uint16), (256, np.uint16, np.uint32),
    (257, np.uint16, np.uint32),
])
def test_wide_alphabets_match_scalar(n_graphemes, table_type, row_type,
                                     monkeypatch):
    # the word table holds the padding id G (uint8 up to 255 graphemes); a
    # band row holds a first word's id times G + 1 plus a second word's id,
    # up to (G+1)**2 - 1, which passes 65,535 at 256 graphemes
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
    assert table[0].dtype == table_type
    for bound in (2, 10):
        got = bounded_distances(table, a, b, bound, alphabet)
        assert got.tolist() == [
            bound + 1 if d is None else d
            for d in (oracle_bounded_distance(words[i], words[j], bound, alphabet)
                      for i, j in zip(a, b))
        ]
    assert set(rows) == {(row_type, row_type)}


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


# Each record that checks its fields, a valid instance, and one bad change.
CHECKED_RECORDS = {
    "Locus": (Locus("f1r", "P", 1, "<f1r.P.1>"), {"line_no": 0}),
    "Token": (Token("daiin"), {"raw": ""}),
    "Alphabet": (TINY, {"indel_cost": 0}),
    "GridSpec": (GridSpec(TINY), {"max_pos_offset": MAX_OFFSET + 1}),
    "GeneratorParams": (GeneratorParams(), {"copy_probability": 1.5}),
}


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
    params = GeneratorParams().replace(line_length_distribution=[["3", 1]])
    assert params.line_length_distribution == ((3, 1.0),)
    made = GeneratorParams._make(
        [["3", 1]] if name == "line_length_distribution" else value
        for name, value in params._asdict().items())
    assert made == params
