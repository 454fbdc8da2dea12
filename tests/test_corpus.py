import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from selfcite.corpus import (
    Corpus,
    EmptyCorpusError,
    Locus,
    ParseError,
    Token,
    filter_pages,
    format_transliteration,
    normalize,
    parse_plaintext,
    parse_transliteration,
    sha256_hex,
)
from selfcite.cooccur import GridSpec, compute_grid, compute_grids
from selfcite.editdist import Alphabet, SegmentationError
from selfcite.generator import GeneratorParams, generate, shuffle_control
from selfcite.network import TypeTable, build_graph
from selfcite.posstats import positional_stats, rank_frequency
from selfcite.profiles import load_profile

from helpers import (
    assemble_corpus,
    oracle_filter_pages,
    oracle_normalize,
    oracle_parse_plaintext,
    oracle_parse_transliteration,
    oracle_shuffle_control,
    oracle_type_rows,
)

VMS = load_profile("vms").alphabet


def test_parse_single_line():
    corpus = parse_transliteration("<f37v.P.3> qokchon.chol.chon")
    assert len(corpus.lines) == 1
    line = corpus.lines[0]
    assert line.locus.page == "f37v"
    assert line.locus.unit == "P"
    assert line.locus.line_no == 3
    assert line.locus.raw_tag == "<f37v.P.3>"
    assert [t.raw for t in line.tokens] == ["qokchon", "chol", "chon"]


def test_parse_empty_is_an_error():
    with pytest.raises(ValueError, match="empty corpus"):
        parse_transliteration("")


def test_parse_two_lines():
    corpus = parse_transliteration("<f1r.P.1> daiin.ol\n<f1r.P.2> ol")
    assert len(corpus.lines) == 2
    assert corpus.token_count() == 3


def test_parse_separators_fillers_and_comments():
    text = "# header comment\n<f1r.P.1> da!iin,ol%.chol\n"
    corpus = parse_transliteration(text)
    assert [t.raw for t in corpus.lines[0].tokens] == ["daiin", "ol", "chol"]


def test_parse_transcriber_suffix_and_braces():
    corpus = parse_transliteration("<f1r.P1.1;H> fachys.ykal {plant} ar.ataiin=")
    assert [t.raw for t in corpus.lines[0].tokens] == [
        "fachys", "ykal", "ar", "ataiin",
    ]
    assert corpus.lines[0].locus.raw_tag == "<f1r.P1.1;H>"


def test_parse_malformed_tag_reports_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_transliteration("<f1r.P.1> daiin\nnot a tag here")


def test_unit_filter_keeps_kinds():
    text = "<f1r.P1.1> daiin.ol\n<f1r.L.1> olkey\n<f1r.P2.1> chol"
    corpus = parse_transliteration(text, frozenset({"P"}))
    assert len(corpus.lines) == 2
    assert all(line.locus.unit_kind == "P" for line in corpus.lines)


def test_paragraph_flags_from_blank_lines_and_pages():
    text = (
        "<f1r.P.1> a.b\n<f1r.P.2> c.d\n\n<f1r.P.3> e.f\n"
        "<f2r.P.1> g.h\n<f2r.P.2> i.j\n"
    )
    corpus = parse_transliteration(text)
    flags = [(l.paragraph_initial, l.paragraph_final) for l in corpus.lines]
    assert flags == [
        (True, False), (False, True),   # first paragraph on f1r
        (True, True),                   # after the blank line
        (True, False), (False, True),   # new page starts a paragraph
    ]


def test_paragraph_break_on_unit_change():
    text = "<f1r.P1.1> a.b\n<f1r.P1.2> c\n<f1r.P2.1> d"
    corpus = parse_transliteration(text)
    assert [l.paragraph_initial for l in corpus.lines] == [True, False, True]


def test_paragraph_break_on_equals_marker():
    text = "<f1r.P.1> a.b=\n<f1r.P.2> c.d"
    corpus = parse_transliteration(text)
    assert corpus.lines[1].paragraph_initial


def test_round_trip_tokens_appear_in_source():
    text = "<f37v.P.3> qokchon.chol,chon\n<f37v.P.5> ykchon"
    corpus = parse_transliteration(text)
    source_lines = text.splitlines()
    for idx, line in enumerate(corpus.lines):
        for token in line.tokens:
            assert token.raw in source_lines[idx]


def test_source_order_preserved():
    text = "<f1r.P.1> a\n<f1r.P.2> b\n<f2v.P.1> c\n<f2v.P.2> d"
    corpus = parse_transliteration(text)
    keys = [(l.locus.page, l.locus.line_no) for l in corpus.lines]
    assert keys == [("f1r", 1), ("f1r", 2), ("f2v", 1), ("f2v", 2)]


# short pool, so words repeat within and across lines
PARSE_WORDS = ["daiin", "ol", "chol", "qokchy", "y"]


@st.composite
def transliteration_line(draw):
    """A blank, comment or content line; content lines mix separators,
    fillers, brace spans, transcriber suffixes, units and end markers."""
    kind = draw(st.sampled_from(["content", "content", "content", "blank", "comment"]))
    if kind == "blank":
        return draw(st.sampled_from(["", "  "]))
    if kind == "comment":
        return "# <f9v.P.1> daiin"
    page = draw(st.sampled_from(["f1r", "f2v"]))
    unit = draw(st.sampled_from(["P", "P1", "L"]))
    suffix = draw(st.sampled_from(["", ";H"]))
    tag = f"<{page}.{unit}.{draw(st.integers(1, 9))}{suffix}>"
    body = ""
    for word in draw(st.lists(st.sampled_from(PARSE_WORDS), max_size=6)):
        body += draw(st.sampled_from([".", ",", "-", " ", ". "]))
        body += word + draw(st.sampled_from(["", "", "!", "%"]))
    if draw(st.booleans()):
        body += " {plant}"
    if draw(st.booleans()):
        body += "="
    return f"{tag} {body}"


@given(
    st.lists(transliteration_line(), min_size=1, max_size=12),
    st.sampled_from([None, frozenset({"P"})]),
)
def test_parse_matches_per_token_oracle(lines, units):
    text = "\n".join(lines)
    try:
        expected = oracle_parse_transliteration(text, units)
    except ValueError:
        with pytest.raises(ValueError, match="empty corpus"):
            parse_transliteration(text, units)
        return
    corpus = parse_transliteration(text, units)
    assert corpus.lines == expected
    shared = {}
    for token in corpus.iter_tokens():
        assert shared.setdefault(token.raw, token) is token


# ---------------------------------------------------------------------------
# plaintext
# ---------------------------------------------------------------------------

def test_plaintext_basic():
    corpus = parse_plaintext("The creation of\nthe world")
    assert len(corpus.lines) == 2
    assert [t.raw for t in corpus.lines[0].tokens] == ["the", "creation", "of"]
    assert [t.raw for t in corpus.lines[1].tokens] == ["the", "world"]


def test_plaintext_double_space_and_case():
    corpus = parse_plaintext("a  B")
    assert [t.raw for t in corpus.lines[0].tokens] == ["a", "b"]


def test_plaintext_punctuation_only_line_dropped():
    corpus = parse_plaintext("word here\n---\nand, more!")
    assert len(corpus.lines) == 2
    assert [t.raw for t in corpus.lines[1].tokens] == ["and", "more"]


def test_plaintext_shares_one_token_per_word():
    corpus = parse_plaintext("the sea and\nThe sea, the end")
    assert [[t.raw for t in line.tokens] for line in corpus.lines] == [
        ["the", "sea", "and"], ["the", "sea", "the", "end"],
    ]
    first, second = corpus.lines
    assert first.tokens[0] is second.tokens[0] is second.tokens[2]
    assert first.tokens[1] is second.tokens[1]


def test_plaintext_empty_error():
    with pytest.raises(ValueError, match="empty corpus"):
        parse_plaintext("\n\n...\n")


def test_plaintext_non_ascii_words_survive():
    from selfcite.corpus import normalize as _normalize
    from selfcite.profiles import profile_from_corpus

    corpus = parse_plaintext("le café était plein,\nnaïve et fière...")
    words = [t.raw for t in corpus.iter_tokens()]
    assert "café" in words and "naïve" in words
    profile = profile_from_corpus(corpus)
    normalized = _normalize(corpus, profile.alphabet, min_graphemes=1)
    assert normalized.token_count() == corpus.token_count()


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_drops_short_tokens():
    corpus = parse_transliteration("<f1r.P.1> daiin.y.ol")
    normalized = normalize(corpus, VMS, min_graphemes=2)
    assert [t.raw for t in normalized.lines[0].tokens] == ["daiin", "ol"]


def test_normalize_counts_graphemes_not_characters():
    # "chy" is two graphemes (ch + y), so it survives min_graphemes=2
    corpus = parse_transliteration("<f1r.P.1> chy")
    normalized = normalize(corpus, VMS, min_graphemes=2)
    assert normalized.lines[0].tokens[0].graphemes == ("ch", "y")


def test_normalize_unsegmentable_token_errors():
    alphabet = Alphabet(graphemes=("q", "a"))
    # the second text repeats the bad word after a good one is memoised
    for text in ("<f1r.P.1> qx", "<f1r.P.1> qa.qx\n<f1r.P.2> qa.qx"):
        corpus = parse_transliteration(text)
        with pytest.raises(SegmentationError, match="qx"):
            normalize(corpus, alphabet)


def test_normalize_drops_emptied_lines_and_reflags():
    text = "<f1r.P.1> y\n<f1r.P.2> daiin.ol\n\n<f1r.P.3> s\n<f1r.P.4> chol"
    corpus = parse_transliteration(text)
    normalized = normalize(corpus, VMS)
    assert [l.locus.line_no for l in normalized.lines] == [2, 4]
    assert all(l.paragraph_initial for l in normalized.lines)
    assert all(l.paragraph_final for l in normalized.lines)


def test_normalize_idempotent():
    text = "<f1r.P.1> daiin.y.ol\n<f1r.P.2> o\n<f2r.P.1> chedy.chol"
    once = normalize(parse_transliteration(text), VMS)
    twice = normalize(once, VMS)
    assert once == twice


@given(st.lists(
    st.lists(st.sampled_from(["daiin", "ol", "y", "chedy", "s", "o"]),
             min_size=1, max_size=5),
    min_size=1, max_size=6,
))
def test_normalize_idempotent_random(token_lines):
    text = "\n".join(
        f"<f1r.P.{i+1}> {'.'.join(tokens)}" for i, tokens in enumerate(token_lines)
    )
    corpus = parse_transliteration(text)
    try:
        once = normalize(corpus, VMS)
    except ValueError:
        return  # everything got dropped
    assert normalize(once, VMS) == once


# short pool, so words repeat; "ol"/"ols" share a prefix
NORMALIZE_WORDS = ["daiin", "ol", "ols", "y", "chedy", "s", "o", "qokchy"]


@given(
    st.lists(
        st.lists(st.sampled_from(NORMALIZE_WORDS), min_size=1, max_size=8),
        min_size=1, max_size=8,
    ),
    st.integers(0, 3),
)
def test_normalize_matches_per_token_oracle(token_lines, min_graphemes):
    text = "\n".join(
        f"<f1r.P.{i+1}> {'.'.join(tokens)}" for i, tokens in enumerate(token_lines)
    )
    corpus = parse_transliteration(text)
    try:
        expected = oracle_normalize(corpus.lines, VMS, min_graphemes)
    except ValueError:
        with pytest.raises(ValueError, match="empty corpus"):
            normalize(corpus, VMS, min_graphemes)
        return
    once = normalize(corpus, VMS, min_graphemes)
    assert once.lines == expected
    assert normalize(once, VMS, min_graphemes) == once


# ---------------------------------------------------------------------------
# filter_pages
# ---------------------------------------------------------------------------

def _two_page_corpus():
    return parse_transliteration(
        "<f1r.P.1> a.b\n<f1r.P.2> c\n<f26r.P.1> d.e\n<f26r.P.2> f"
    )


def test_filter_pages_keeps_only_requested():
    corpus = filter_pages(_two_page_corpus(), {"f26r"})
    assert [l.locus.page for l in corpus.lines] == ["f26r", "f26r"]


def test_filter_pages_empty_set_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        filter_pages(_two_page_corpus(), set())


def test_filter_pages_no_match_errors():
    with pytest.raises(ValueError, match="no lines match"):
        filter_pages(_two_page_corpus(), {"f99v"})


def test_filter_pages_lines_become_adjacent():
    corpus = parse_transliteration(
        "<f1r.P.1> a\n<f2r.P.1> b\n<f3r.P.1> c"
    )
    kept = filter_pages(corpus, {"f1r", "f3r"})
    assert [l.locus.page for l in kept.lines] == ["f1r", "f3r"]


def _grid_of(corpus):
    return compute_grid(corpus, GridSpec(alphabet=VMS))


def _stats_of(corpus):
    profile = load_profile("vms")
    return positional_stats(
        corpus, profile.gallows, profile.prefixes, profile.line_final_glyphs
    )


@pytest.mark.parametrize("consumer", [_grid_of, _stats_of],
                         ids=["compute_grid", "positional_stats"])
def test_unnormalized_corpus_rejected_naming_token(consumer):
    corpus = parse_transliteration("<f1r.P.1> chedy.ol\n<f1r.P.2> daiin")
    with pytest.raises(ValueError, match=r"token 'chedy' .*normalize the corpus"):
        consumer(corpus)


# ---------------------------------------------------------------------------
# serializer
# ---------------------------------------------------------------------------

def test_format_round_trip():
    text = (
        "<f1r.P.1> daiin.ol\n<f1r.P.2> chol.dy\n\n<f1r.P.3> otedy\n"
        "<f2r.P.1> chedy.qokeey"
    )
    corpus = parse_transliteration(text)
    reparsed = parse_transliteration(format_transliteration(corpus))
    assert [t.raw for l in reparsed.lines for t in l.tokens] == [
        t.raw for l in corpus.lines for t in l.tokens
    ]
    assert [l.paragraph_initial for l in reparsed.lines] == [
        l.paragraph_initial for l in corpus.lines
    ]
    assert [l.locus for l in reparsed.lines] == [l.locus for l in corpus.lines]


# ---------------------------------------------------------------------------
# type table
# ---------------------------------------------------------------------------

def _with_separate_tokens(corpus: Corpus) -> Corpus:
    """An equal corpus assembled from a Token object per occurrence."""
    return assemble_corpus([
        (line.locus, tuple(Token(t.raw, t.graphemes) for t in line.tokens),
         line.paragraph_id)
        for line in corpus.lines
    ])


def _corpus_from(source: str, text: str, seed: int) -> Corpus:
    if source == "plaintext":
        return parse_plaintext(text.replace(".", " "))
    if source == "generate":
        params = GeneratorParams.defaults().replace(
            target_token_count=20 + seed % 200, rng_seed=seed
        )
        return generate(params, VMS)
    corpus = parse_transliteration(text)
    if source == "normalize":
        return normalize(corpus, VMS, min_graphemes=seed % 3)
    if source == "filter_pages":
        return filter_pages(corpus, {"f1r"})
    if source == "shuffle_control":
        return shuffle_control(corpus, seed)
    return corpus


@settings(deadline=None)
@given(
    st.lists(transliteration_line(), min_size=1, max_size=12),
    st.sampled_from([
        "parse_transliteration", "plaintext", "normalize", "filter_pages",
        "shuffle_control", "generate",
    ]),
    st.integers(0, 2**16),
)
def test_type_table_is_a_first_occurrence_count(lines, source, seed):
    try:
        corpus = _corpus_from(source, "\n".join(lines), seed)
    except EmptyCorpusError:
        return
    counts = Counter(token.raw for token in corpus.iter_tokens())
    graphemes = {}
    for token in corpus.iter_tokens():
        graphemes.setdefault(token.raw, token.graphemes)
    expected = TypeTable(tuple(counts), tuple(counts.values()), tuple(graphemes.values()))
    for built in (corpus, _with_separate_tokens(corpus)):
        assert TypeTable(built.words, built.counts, built.graphemes) == expected
        if None not in built.graphemes:
            assert TypeTable.from_corpus(built) == expected


def test_equal_tokens_need_not_be_shared():
    lines = [
        ["chol", "daiin", "chol", "ol"],
        ["chor", "chol", "daiin", "shol"],
        ["daiin", "chor", "chol", "shol", "ol"],
        ["shol", "chol", "dain", "chor"],
    ]
    made = {}

    def shared_token(word):
        return made.setdefault(word, Token(word, VMS.segment(word)))

    def build(token_of):
        return assemble_corpus([
            (Locus("f1r", "P", n, ""), tuple(map(token_of, words)), 0)
            for n, words in enumerate(lines, start=1)
        ])

    shared = build(shared_token)
    separate = build(lambda word: Token(word, VMS.segment(word)))
    assert shared == separate
    assert len(separate.words) == len({word for words in lines for word in words})
    spec = GridSpec(alphabet=VMS, max_line_offset=3, max_pos_offset=2)
    grids = [compute_grids(corpus, spec, (0, 1, 2)) for corpus in (shared, separate)]
    for d in (0, 1, 2):
        assert grids[0][d].cells == grids[1][d].cells
    assert sum(cell.match_count for cell in grids[1][0].cells.values()) > 0
    edges = [
        build_graph(TypeTable.from_corpus(corpus), VMS, min_freq=1).edges()
        for corpus in (shared, separate)
    ]
    assert edges[0] == edges[1]
    assert ("daiin", "dain") in edges[1]
    assert rank_frequency(shared) == rank_frequency(separate)
    assert rank_frequency(separate)[0] == (1, "chol", 5)


# ---------------------------------------------------------------------------
# the columnar corpus against the per-token oracles
# ---------------------------------------------------------------------------

# cannot segment "y" or "qokchy", so both fail in normalize
NARROW = Alphabet(graphemes=("ch", "d", "a", "i", "n", "o", "l"))
ORACLE_PAGES = {"f1r", "g002", "text"}


def _views(corpus):
    return corpus.lines, list(zip(corpus.words, corpus.counts, corpus.graphemes))


def _outcome(start, steps):
    """The result of ``start()`` put through ``steps``, or the ValueError
    (a SegmentationError, or an empty corpus) that stopped it."""
    try:
        value = start()
        for step in steps:
            value = step(value)
    except ValueError as exc:
        return None, exc
    return value, None


@settings(deadline=None)
@given(
    st.lists(transliteration_line(), min_size=1, max_size=12),
    st.sampled_from(["transliteration", "units", "plaintext", "generate"]),
    st.lists(st.sampled_from(["normalize", "filter_pages", "shuffle_control"]),
             max_size=3),
    st.sampled_from([VMS, NARROW]),
    st.integers(0, 2**16),
)
def test_columnar_views_match_the_oracles(lines, source, steps, alphabet, seed):
    # every stage's lines, loci, paragraph flags and type table read through
    # the views equal the per-token oracles' records, and both fail alike: a
    # word the alphabet cannot segment is named by the same error
    text = "\n".join(lines)
    plain = text.replace(".", " ")
    min_graphemes = seed % 3
    if source == "generate":
        generated = generate(GeneratorParams.defaults().replace(
            target_token_count=20 + seed % 200, rng_seed=seed), VMS)
        text = format_transliteration(generated)
    library_sources = {
        "transliteration": lambda: parse_transliteration(text),
        "units": lambda: parse_transliteration(text, frozenset({"P"})),
        "plaintext": lambda: parse_plaintext(plain),
        "generate": lambda: generated,
    }
    oracle_sources = {
        "transliteration": lambda: oracle_parse_transliteration(text),
        "units": lambda: oracle_parse_transliteration(text, frozenset({"P"})),
        "plaintext": lambda: oracle_parse_plaintext(plain),
        "generate": lambda: tuple(
            line._replace(tokens=tuple(Token(t.raw, VMS.segment(t.raw)) for t in line.tokens))
            for line in oracle_parse_transliteration(text)
        ),
    }
    library_steps = {
        "normalize": lambda c: normalize(c, alphabet, min_graphemes),
        "filter_pages": lambda c: filter_pages(c, ORACLE_PAGES),
        "shuffle_control": lambda c: shuffle_control(c, seed),
    }
    oracle_steps = {
        "normalize": lambda lines: oracle_normalize(lines, alphabet, min_graphemes),
        "filter_pages": lambda lines: oracle_filter_pages(lines, ORACLE_PAGES),
        "shuffle_control": lambda lines: oracle_shuffle_control(lines, seed),
    }
    corpus, error = _outcome(library_sources[source], [library_steps[s] for s in steps])
    expected, expected_error = _outcome(oracle_sources[source], [oracle_steps[s] for s in steps])
    if expected_error is None:
        assert error is None, error
        assert _views(corpus) == (expected, oracle_type_rows(expected))
    elif isinstance(expected_error, SegmentationError):
        assert isinstance(error, SegmentationError)
        assert str(error) == str(expected_error)
    else:
        assert isinstance(error, EmptyCorpusError)


# 55 and 56 bytes straddle the length that still pads into one 64-byte
# block; 64 and 65 fill a block and spill past it.
@pytest.mark.parametrize("size", [0, 55, 56, 64, 65, 1 << 20])
def test_sha256_hex_matches_hashlib(size):
    data = random.Random(size).randbytes(size)
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()
