import pytest
from hypothesis import given, strategies as st

from selfcite.corpus import Locus, Token, normalize, parse_transliteration
from selfcite.editdist import Alphabet
from selfcite.posstats import is_subgroup, positional_stats, rank_frequency
from selfcite.profiles import load_profile

from helpers import assemble_corpus, oracle_positional_stats, oracle_subgroup

PROFILE = load_profile("vms")
VMS = PROFILE.alphabet


def _corpus(text, min_graphemes=2):
    return normalize(parse_transliteration(text), VMS, min_graphemes)


def _stats(corpus, **kwargs):
    return positional_stats(
        corpus, PROFILE.gallows, PROFILE.prefixes, PROFILE.line_final_glyphs,
        **kwargs,
    )


def test_every_paragraph_initial_word_gallows():
    text = (
        "<f1r.P.1> kchedy.daiin\n<f1r.P.2> chol.dar\n\n"
        "<f1r.P.3> tokar.ol\n<f2r.P.1> pchor.dy"
    )
    report = _stats(_corpus(text))
    assert report.paragraph_initial_gallows_rate.value == 1.0
    assert report.paragraph_initial_gallows_rate.total == 3


def test_gallows_rate_counts_first_grapheme_only():
    # "chedy" contains no gallows start; "ckhedy" starts with c, not a gallows
    text = "<f1r.P.1> chedy.kor\n\n<f1r.P.2> kedy.ol"
    report = _stats(_corpus(text))
    assert report.paragraph_initial_gallows_rate.hits == 1
    assert report.paragraph_initial_gallows_rate.total == 2


def test_prefix_rates_split_initial_vs_internal():
    text = "<f1r.P.1> ydaiin.chol.okar\n<f1r.P.2> chedy.saiin"
    report = _stats(_corpus(text))
    # line-initial: ydaiin (y yes), chedy (no) -> 1/2
    assert report.line_initial_prefix_rate.hits == 1
    assert report.line_initial_prefix_rate.total == 2
    # internal: chol (no), okar (o yes), saiin (s yes) -> 2/3
    assert report.line_internal_prefix_rate.hits == 2
    assert report.line_internal_prefix_rate.total == 3


def test_line_final_rate_counts_grapheme_occurrences():
    # three occurrences of m: two line-terminal, one word-internal
    text = "<f1r.P.1> daiin.cham\n<f1r.P.2> amol.chol\n<f1r.P.3> otam"
    report = _stats(_corpus(text))
    rate = report.line_final_rates["m"]
    assert rate.total == 3
    assert rate.hits == 2


def test_mean_lengths_in_graphemes():
    # paragraph-first line: chedy (4) + ol (2); second line: daiin (5)
    text = "<f1r.P.1> chedy.ol\n<f1r.P.2> daiin"
    report = _stats(_corpus(text))
    assert report.mean_token_length_overall == pytest.approx(11 / 3)
    assert report.mean_token_length_paragraph_first_lines == pytest.approx(3.0)
    assert report.token_count == 3
    assert report.paragraph_first_line_token_count == 2


def test_second_word_comparisons():
    text = (
        "<f1r.P.1> chedy.ol.qokedy\n"      # shorter
        "<f1r.P.2> ol.chedy\n"             # longer
        "<f1r.P.3> chol.chor\n"            # equal
        "<f1r.P.4> daiin\n"                # no pair
    )
    report = _stats(_corpus(text))
    assert report.second_shorter_rate.hits == 1
    assert report.second_longer_rate.hits == 1
    assert report.second_shorter_rate.total == 3


def test_subgroup_rates():
    text = (
        "<f1r.P.1> ychedy.chedy.okedy\n"   # second is first minus prefix
        "<f1r.P.2> chol.daiin.aii\n"       # third is subgroup of second
    )
    report = _stats(_corpus(text))
    assert report.second_word_subgroup_rate.hits == 1
    assert report.second_word_subgroup_rate.total == 2
    assert report.internal_subgroup_rate.hits == 1
    assert report.internal_subgroup_rate.total == 2


def test_subgroup_contiguous_vs_subsequence():
    # the contiguous reading is positional_stats' substring test; the oracle
    # reads both ways, and the library's is_subgroup only as a subsequence
    a = ("q", "o", "k", "e", "d", "y")
    assert oracle_subgroup(("o", "k"), a, contiguous=True)
    assert not oracle_subgroup(("q", "k"), a, contiguous=True)
    for subgroup in (is_subgroup, lambda b, a: oracle_subgroup(b, a, contiguous=False)):
        assert subgroup(("o", "k"), a) and subgroup(("q", "k"), a)
        assert not subgroup(("k", "q"), a) and not subgroup(a + ("y",), a)
        assert subgroup(a, a)  # reflexive


def test_subgroup_transitive():
    a = ("c", "h", "e", "d", "y")
    b = ("h", "e", "d")
    c = ("e", "d")
    for contiguous in (True, False):
        assert all(oracle_subgroup(x, y, contiguous) for x, y in ((b, a), (c, b), (c, a)))
    assert is_subgroup(b, a) and is_subgroup(c, b) and is_subgroup(c, a)


def test_empty_corpus_rejected():
    empty = assemble_corpus([])
    with pytest.raises(ValueError, match="empty corpus"):
        _stats(empty)


def test_unnormalized_corpus_rejected():
    corpus = parse_transliteration("<f1r.P.1> chedy.ol")
    with pytest.raises(ValueError, match="normalize"):
        _stats(corpus)


def test_report_invariant_under_page_reordering():
    text = (
        "<f1r.P.1> kchedy.chol\n<f1r.P.2> daiin.ol\n"
        "<f2r.P.1> tor.ykchol\n<f2r.P.2> cham.dy"
    )
    corpus = _corpus(text)
    swapped_text = (
        "<f2r.P.1> tor.ykchol\n<f2r.P.2> cham.dy\n"
        "<f1r.P.1> kchedy.chol\n<f1r.P.2> daiin.ol"
    )
    swapped = _corpus(swapped_text)
    assert _stats(corpus) == _stats(swapped)


# "ch" and "sh" share their characters with "c", "h" and "s": a contiguous
# subgroup is a run of whole graphemes, so "c" is not one of "cho", whose
# graphemes are ("ch", "o"), though its characters are.
SHARED = Alphabet(graphemes=("c", "h", "ch", "sh", "s", "o", "m"))
_GLYPHS = st.frozensets(st.sampled_from(SHARED.graphemes))
_WORD = st.lists(st.sampled_from(SHARED.graphemes), min_size=1, max_size=4).map("".join)
# one-token lines, and paragraphs of one line or several
_PARAGRAPHS = st.lists(
    st.lists(st.lists(_WORD, min_size=1, max_size=5), min_size=1, max_size=4),
    min_size=1, max_size=4,
)


@given(paragraphs=_PARAGRAPHS, gallows=_GLYPHS, prefixes=_GLYPHS, finals=_GLYPHS,
       contiguous=st.booleans())
def test_report_matches_per_token_oracle(paragraphs, gallows, prefixes, finals, contiguous):
    lines = [words for paragraph in paragraphs for words in paragraph]
    para_ids = [n for n, paragraph in enumerate(paragraphs) for _ in paragraph]
    records = [
        (Locus("f1r", "P", n + 1, ""), tuple(map(Token, words)), para_id)
        for n, (words, para_id) in enumerate(zip(lines, para_ids))
    ]
    corpus = normalize(assemble_corpus(records), SHARED, 1)
    assert positional_stats(corpus, gallows, prefixes, finals, contiguous) == (
        oracle_positional_stats(corpus, gallows, prefixes, finals, contiguous)
    )


# ---------------------------------------------------------------------------
# rank_frequency
# ---------------------------------------------------------------------------

def test_rank_frequency_basic():
    corpus = _corpus("<f1r.P.1> ab.ab.cd")
    assert rank_frequency(corpus) == [(1, "ab", 2), (2, "cd", 1)]


def test_rank_frequency_tie_is_lexicographic():
    corpus = _corpus("<f1r.P.1> cd.ab")
    assert rank_frequency(corpus) == [(1, "ab", 1), (2, "cd", 1)]


def test_rank_frequency_counts_sum_to_token_count():
    text = "<f1r.P.1> chedy.ol.chedy\n<f1r.P.2> daiin.ol.chedy"
    corpus = _corpus(text)
    ranks = rank_frequency(corpus)
    assert sum(c for _, _, c in ranks) == corpus.token_count()
