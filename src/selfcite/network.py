"""Word-type similarity networks: distance-1 edges over frequent types.

Nodes are the word types that occur at least ``min_freq`` times; an edge
joins two types at exactly edit distance one under the profile's costs.
Since every cost is a positive integer, a distance-1 pair is one edit of
cost 1 apart: an indel when ``indel_cost`` is 1, a swap of similar
graphemes when ``similar_substitution_cost`` is 1, and a swap to any
grapheme when ``dissimilar_substitution_cost`` is 1.

Edges are found by neighbor generation: the variants of each node are
looked up in an index of the nodes, so the full quadratic pair set is never
evaluated. Only deletions and swaps are generated. An insertion into ``a``
that gives the node ``b`` is the deletion from ``b`` that gives ``a``, so
``b``'s deletions find that edge, from far fewer variants than inserting
every grapheme at every position would make.

The nodes, their counts and their graphemes come from a :class:`TypeTable`,
which holds them as three columns; ``TypeTable.from_corpus`` reads them off
a corpus's own columns.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import NamedTuple

from selfcite.corpus import Corpus
from selfcite.editdist import Alphabet, are_similar


class TypeTable(NamedTuple):
    """Distinct word types in columns: ``words[k]`` occurs ``counts[k]``
    times and splits into ``graphemes[k]``. Read from a corpus, the types
    are in order of first occurrence."""

    words: tuple[str, ...]
    counts: tuple[int, ...]
    graphemes: tuple[tuple[str, ...], ...]

    @classmethod
    def from_corpus(cls, corpus: Corpus, alphabet: Alphabet | None = None) -> "TypeTable":
        """The corpus's types, counts and segmentations. A type the corpus
        has not segmented is segmented by ``alphabet`` if one is given;
        otherwise it raises as :meth:`Corpus.segmentations`."""
        if alphabet is None:
            graphemes = corpus.segmentations()
        else:
            graphemes = tuple(seq or alphabet.segment(word)
                              for word, seq in zip(corpus.words, corpus.graphemes))
        return cls(corpus.words, corpus.counts, graphemes)

    def grapheme_counts(self) -> Counter:
        """Occurrences of each grapheme across all tokens."""
        counts = Counter()
        for graphemes, count in zip(self.graphemes, self.counts):
            for g in graphemes:
                counts[g] += count
        return counts


class SimilarityGraph(NamedTuple):
    adjacency: dict[str, tuple[str, ...]]

    @property
    def nodes(self) -> set[str]:
        return set(self.adjacency)

    def edges(self) -> set[tuple[str, str]]:
        return {
            (a, b) if a < b else (b, a)
            for a, nbrs in self.adjacency.items()
            for b in nbrs
        }


def _one_edit_variants(seq: tuple[str, ...], alphabet: Alphabet):
    """Every sequence one cost-1 deletion or swap away from ``seq`` (see the
    module docstring for why insertions are not needed)."""
    if alphabet.indel_cost == 1:
        for i in range(len(seq)):
            yield seq[:i] + seq[i + 1 :]
    if alphabet.dissimilar_substitution_cost == 1:
        swaps = dict.fromkeys(alphabet.graphemes, alphabet.graphemes)
    elif alphabet.similar_substitution_cost == 1:
        swaps = alphabet.similar_partners
    else:
        return
    for i, g in enumerate(seq):
        for p in swaps[g]:
            yield seq[:i] + (p,) + seq[i + 1 :]


def build_graph(
    table: TypeTable,
    alphabet: Alphabet,
    min_freq: int = 4,
) -> SimilarityGraph:
    """Build the distance-1 graph over types with count >= min_freq."""
    if not table.words:
        raise ValueError("type table is empty")
    nodes = {
        word: seq
        for word, seq, count in zip(table.words, table.graphemes, table.counts)
        if count >= min_freq
    }
    index = {seq: word for word, seq in nodes.items()}
    adjacency: dict[str, set[str]] = {word: set() for word in nodes}
    for word, seq in nodes.items():
        for variant in _one_edit_variants(seq, alphabet):
            other = index.get(variant)
            if other is not None and other != word:
                adjacency[word].add(other)
                adjacency[other].add(word)
    return SimilarityGraph({w: tuple(sorted(ns)) for w, ns in adjacency.items()})


def shortest_path(graph: SimilarityGraph, source: str, target: str) -> list[str] | None:
    """Minimum-edge path by breadth-first search, or None if disconnected.

    Neighbors expand in lexicographic order, so the returned path is
    deterministic.
    """
    for endpoint in (source, target):
        if endpoint not in graph.adjacency:
            raise ValueError(f"{endpoint!r} is not a node of the graph")
    if source == target:
        return [source]
    parents = {source: None}
    queue = deque([source])
    while queue:
        word = queue.popleft()
        for nbr in graph.adjacency[word]:
            if nbr in parents:
                continue
            parents[nbr] = word
            if nbr == target:
                path = [nbr]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                return path[::-1]
            queue.append(nbr)
    return None


def degree_coverage(graph: SimilarityGraph) -> float:
    """Fraction of nodes with at least one neighbor."""
    if not graph.adjacency:
        raise ValueError("graph has no nodes")
    connected = sum(1 for nbrs in graph.adjacency.values() if nbrs)
    return connected / len(graph.adjacency)


class RatioRow(NamedTuple):
    type_a: str
    type_b: str
    grapheme_a: str
    grapheme_b: str
    count_a: int
    count_b: int
    count_ratio: float
    grapheme_count_ratio: float


def edge_operation(a: tuple[str, ...], b: tuple[str, ...]) -> str:
    """Label the single edit separating two distance-1 sequences."""
    if len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"substitute {x}~{y} @{i}"
        raise ValueError("sequences are identical")
    if len(a) < len(b):
        a, b = b, a
    for i in range(len(a)):
        if a[:i] + a[i + 1 :] == b:
            return f"indel {a[i]} @{i}"
    raise ValueError("sequences are not one edit apart")


def frequency_ratio_report(
    table: TypeTable, graph: SimilarityGraph, alphabet: Alphabet
) -> list[RatioRow]:
    """For each similar-substitution edge, compare type and grapheme counts.

    The more frequent type goes first; ``count_ratio`` is count_b/count_a
    and ``grapheme_count_ratio`` is the corpus-wide occurrence ratio of the
    substituted graphemes, oriented the same way.
    """
    grapheme_counts = table.grapheme_counts()
    graphemes = dict(zip(table.words, table.graphemes))
    counts = dict(zip(table.words, table.counts))
    rows = []
    for a, b in sorted(graph.edges()):
        seq_a = graphemes[a]
        seq_b = graphemes[b]
        if len(seq_a) != len(seq_b):
            continue
        diff = [(x, y) for x, y in zip(seq_a, seq_b) if x != y]
        if len(diff) != 1 or not are_similar(diff[0][0], diff[0][1], alphabet):
            continue
        count_a = counts[a]
        count_b = counts[b]
        if (count_b, a) > (count_a, b):
            a, b = b, a
            count_a, count_b = count_b, count_a
            diff = [(diff[0][1], diff[0][0])]
        ga, gb = diff[0]
        grapheme_ratio = (
            grapheme_counts[gb] / grapheme_counts[ga]
            if grapheme_counts[ga] else float("inf")
        )
        rows.append(RatioRow(
            type_a=a, type_b=b, grapheme_a=ga, grapheme_b=gb,
            count_a=count_a, count_b=count_b, count_ratio=count_b / count_a,
            grapheme_count_ratio=grapheme_ratio,
        ))
    return rows
