import random

import pytest

from selfcite.corpus import normalize, parse_transliteration
from selfcite.editdist import Alphabet, edit_distance
from selfcite.network import (
    TypeTable,
    build_graph,
    degree_coverage,
    edge_operation,
    frequency_ratio_report,
    shortest_path,
)
from selfcite.profiles import load_profile

from helpers import bucket_edges

VMS = load_profile("vms").alphabet


def _table(counts: dict[str, int], alphabet=VMS) -> TypeTable:
    return TypeTable(tuple(counts), tuple(counts.values()), tuple(map(alphabet.segment, counts)))


def test_min_freq_and_insert_edge():
    table = _table({"ol": 10, "chol": 10, "qol": 1})
    graph = build_graph(table, VMS, min_freq=4)
    assert graph.nodes == {"ol", "chol"}
    assert graph.edges() == {("chol", "ol")}  # single "ch" insertion


def test_single_node_no_edges():
    table = _table({"ab": 5})
    graph = build_graph(table, VMS)
    assert graph.nodes == {"ab"}
    assert graph.edges() == set()


def test_similar_substitution_edge_but_not_dissimilar():
    table = _table({"chol": 8, "chal": 8, "chql": 8})
    graph = build_graph(table, VMS, min_freq=4)
    # o~a is one similarity class apart; o/q is a two-cost substitution
    assert ("chal", "chol") in graph.edges()
    assert ("chol", "chql") not in graph.edges()


def _agree_on_random_tables(alphabet, symbols, seed, trials):
    rng = random.Random(seed)
    for trial in range(trials):
        n_types = rng.randrange(2, 60)
        words = set()
        while len(words) < n_types:
            length = rng.randrange(1, 5)
            words.add("".join(rng.choice(symbols) for _ in range(length)))
        table = _table({w: rng.randrange(1, 12) for w in words}, alphabet)
        frequent = {w: seq for w, seq, count in zip(table.words, table.graphemes, table.counts)
                    if count >= 3}
        graph = build_graph(table, alphabet, min_freq=3)
        assert graph.nodes == set(frequent), trial
        assert graph.edges() == bucket_edges(frequent, alphabet), trial


def test_strategies_agree_on_random_tables():
    alphabet = Alphabet(
        graphemes=("ch", "a", "b", "o", "y"),
        similarity_groups=(frozenset({"a", "o"}), frozenset({"o", "y"})),
    )
    _agree_on_random_tables(alphabet, ("ch", "a", "b", "o", "y"), 2024, 100)


COST_ALPHABETS = {
    # every edit costs 1, as under the ``chars`` profile: all swaps count
    "unit": Alphabet.single_characters("aboy"),
    # indels cost 2, so only the similar swap is one edit
    "indel2": Alphabet(
        graphemes=tuple("aboy"), similarity_groups=(frozenset("ao"),),
        dissimilar_substitution_cost=3, indel_cost=2,
    ),
    # every edit costs 2: no distance-1 pair exists
    "no_unit_edit": Alphabet(
        graphemes=tuple("aboy"), similar_substitution_cost=2,
        dissimilar_substitution_cost=2, indel_cost=2,
    ),
}


@pytest.mark.parametrize("name", sorted(COST_ALPHABETS))
def test_edges_follow_the_profile_costs(name):
    _agree_on_random_tables(COST_ALPHABETS[name], "aboy", 5, 60)


def test_unit_cost_profile_links_single_swaps():
    alphabet = Alphabet.single_characters("abcot")
    graph = build_graph(_table({"cat": 4, "bat": 4, "cot": 4}, alphabet),
                        alphabet, min_freq=3)
    assert graph.edges() == {("bat", "cat"), ("cat", "cot")}


def test_strategies_agree_on_larger_table():
    rng = random.Random(77)
    words = set()
    while len(words) < 400:
        words.add("".join(rng.choice("aboy") for _ in range(rng.randrange(2, 6))))
    alphabet = Alphabet(
        graphemes=tuple("aboy"), similarity_groups=(frozenset("ao"),),
        dissimilar_substitution_cost=2,
    )
    table = _table({w: rng.randrange(4, 20) for w in words}, alphabet)
    nodes = dict(zip(table.words, table.graphemes))
    assert build_graph(table, alphabet).edges() == bucket_edges(nodes, alphabet)


def test_every_edge_is_distance_one():
    rng = random.Random(31)
    words = set()
    while len(words) < 120:
        words.add("".join(rng.choice("chaoy") for _ in range(rng.randrange(2, 6))))
    table = _table({w: 5 for w in words})
    graph = build_graph(table, VMS)
    assert graph.edges()
    for a, b in graph.edges():
        assert edit_distance(a, b, VMS) == 1


def test_bfs_identity_path():
    table = _table({"daiin": 9})
    graph = build_graph(table, VMS)
    assert shortest_path(graph, "daiin", "daiin") == ["daiin"]


def test_bfs_unknown_endpoint():
    table = _table({"daiin": 9})
    graph = build_graph(table, VMS)
    with pytest.raises(ValueError, match="'ol'"):
        shortest_path(graph, "daiin", "ol")


def test_bfs_disconnected_returns_none():
    table = _table({"ol": 9, "qqqqq": 9})
    graph = build_graph(table, VMS)
    assert shortest_path(graph, "ol", "qqqqq") is None


def test_bfs_no_longer_than_witness_chain():
    witness = ["daiin", "dain", "dai", "da", "do", "dol", "ol"]
    for a, b in zip(witness, witness[1:]):
        assert edit_distance(a, b, VMS) == 1, (a, b)
    table = _table({w: 5 for w in witness + ["qokedy", "chedy"]})
    graph = build_graph(table, VMS)
    path = shortest_path(graph, "daiin", "ol")
    assert path is not None
    assert len(path) - 1 <= len(witness) - 1


def test_bfs_deterministic_tie_break():
    # two shortest paths exist; lexicographic expansion picks a fixed one
    table = _table({"aa": 5, "aab": 5, "aac": 5, "aabc": 5})
    graph = build_graph(table, VMS)
    assert shortest_path(graph, "aa", "aabc") == ["aa", "aab", "aabc"]


def test_degree_coverage():
    full = build_graph(_table({"ol": 5, "al": 5, "dal": 5}), VMS)
    assert degree_coverage(full) == 1.0
    isolated = build_graph(_table({"qqqqq": 5}), VMS)
    assert degree_coverage(isolated) == 0.0


def test_degree_coverage_monotone_in_min_freq():
    rng = random.Random(8)
    words = {}
    while len(words) < 150:
        w = "".join(rng.choice("chaoyd") for _ in range(rng.randrange(2, 5)))
        words.setdefault(w, rng.randrange(1, 30))
    table = _table(words)
    coverages = []
    for min_freq in (1, 2, 4, 8, 16):
        graph = build_graph(table, VMS, min_freq=min_freq)
        if graph.nodes:
            coverages.append(degree_coverage(graph))
    assert coverages == sorted(coverages, reverse=True)


def test_edge_operation_labels():
    assert edge_operation(("ch", "o", "l"), ("o", "l")) == "indel ch @0"
    assert edge_operation(("ch", "o", "l"), ("ch", "a", "l")) == "substitute o~a @1"


def test_frequency_ratio_report_orientation():
    alphabet = Alphabet(
        graphemes=("ch", "sh", "e", "d", "y"),
        similarity_groups=(frozenset({"ch", "sh"}),),
    )
    text = "<f1r.P.1> " + ".".join(["chedy"] * 8 + ["shedy"] * 4)
    corpus = normalize(parse_transliteration(text), alphabet)
    table = TypeTable.from_corpus(corpus)
    graph = build_graph(table, alphabet, min_freq=4)
    rows = frequency_ratio_report(table, graph, alphabet)
    assert len(rows) == 1
    row = rows[0]
    assert (row.type_a, row.type_b) == ("chedy", "shedy")
    assert (row.grapheme_a, row.grapheme_b) == ("ch", "sh")
    assert row.count_ratio == pytest.approx(0.5)
    assert row.grapheme_count_ratio == pytest.approx(0.5)


def test_frequency_ratio_report_puts_the_more_frequent_type_first():
    # the later type of the sorted edge is the more frequent one, so the row
    # swaps the types, their counts and the substituted graphemes
    alphabet = Alphabet(
        graphemes=("ch", "sh", "e", "d", "y"),
        similarity_groups=(frozenset({"ch", "sh"}),),
    )
    text = "<f1r.P.1> " + ".".join(["chedy"] * 4 + ["shedy"] * 8)
    corpus = normalize(parse_transliteration(text), alphabet)
    table = TypeTable.from_corpus(corpus)
    rows = frequency_ratio_report(table, build_graph(table, alphabet, 4), alphabet)
    assert len(rows) == 1
    row = rows[0]
    assert (row.type_a, row.type_b) == ("shedy", "chedy")
    assert (row.grapheme_a, row.grapheme_b) == ("sh", "ch")
    assert (row.count_a, row.count_b) == (8, 4)
    assert row.count_ratio == pytest.approx(0.5)
    assert row.grapheme_count_ratio == pytest.approx(0.5)


def test_frequency_ratio_report_no_substitution_edges():
    table = _table({"ol": 5, "chol": 5})  # indel edge only
    graph = build_graph(table, VMS)
    assert frequency_ratio_report(table, graph, VMS) == []


def test_frequency_ratio_equal_counts():
    table = _table({"chol": 6, "chal": 6})
    graph = build_graph(table, VMS)
    rows = frequency_ratio_report(table, graph, VMS)
    assert len(rows) == 1
    assert rows[0].count_ratio == 1.0


def test_type_table_from_corpus_totals():
    corpus = normalize(
        parse_transliteration("<f1r.P.1> chedy.ol\n<f1r.P.2> chedy"), VMS
    )
    table = TypeTable.from_corpus(corpus)
    assert sum(table.counts) == corpus.token_count() == 3
    assert table.counts[table.words.index("chedy")] == 2


def test_type_table_from_corpus_segments_an_unnormalized_corpus():
    corpus = parse_transliteration("<f1r.P.1> chedy.ol.qokchy\n<f1r.P.2> chedy.y")
    table = TypeTable.from_corpus(corpus, VMS)
    assert table == TypeTable.from_corpus(normalize(corpus, VMS, min_graphemes=1))
    assert table.graphemes[0] == ("ch", "e", "d", "y")


def test_type_table_from_corpus_needs_a_normalized_corpus_or_an_alphabet():
    corpus = parse_transliteration("<f1r.P.1> chedy.ol")
    with pytest.raises(ValueError, match="normalize the corpus first"):
        TypeTable.from_corpus(corpus)
