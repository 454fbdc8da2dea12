"""Word-type similarity networks: distance-1 edges over frequent types.

Nodes are the word types that occur at least ``min_freq`` times; an edge
joins two types at exactly edit distance one under the profile's costs.
Since every cost is a positive integer, a distance-1 pair is one edit of
cost 1 apart: an indel when ``indel_cost`` is 1, a swap of similar
graphemes when ``similar_substitution_cost`` is 1, and a swap to any
grapheme when ``dissimilar_substitution_cost`` is 1.

Edges are found from each node's deletions, never from the quadratic pair
set nor from a variant per grapheme of the alphabet. A node is keyed by one
character per grapheme, its inventory id, so each deletion is one string
slice whatever the graphemes' surface forms. A node equal to another's
deletion is one indel from it. Two nodes with equal deletions at position
``i`` differ at ``i`` alone: nodes are filed under the hash of ``(i, the
deletion)`` where their grapheme has a cost-1 swap, and are compared before
they are joined, so a hash collision adds no edge.

The nodes, their counts and their graphemes come from a :class:`TypeTable`,
which holds them as three columns; ``TypeTable.from_corpus`` reads them off
a corpus's own columns.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from typing import NamedTuple

from selfcite.corpus import Corpus
from selfcite.editdist import Alphabet, are_similar, common_prefix


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
    ids = alphabet.grapheme_ids
    keys = {word: "".join(map(chr, map(ids.__getitem__, seq))) for word, seq in nodes.items()}
    index = {key: word for word, key in keys.items()}
    indel_edges = alphabet.indel_cost == 1
    unit_swaps = alphabet.dissimilar_substitution_cost == 1
    partners = alphabet.similar_partners if alphabet.similar_substitution_cost == 1 else {}
    adjacency: dict[str, set[str]] = {word: set() for word in nodes}
    buckets: defaultdict[int, list[str]] = defaultdict(list)
    for word, x in keys.items():
        neighbors = adjacency[word]
        for i, g in enumerate(nodes[word]):
            deletion = x[:i] + x[i + 1 :]
            if indel_edges and deletion in index:
                neighbors.add(index[deletion])
            if unit_swaps or partners.get(g):
                bucket = buckets[hash((i, deletion))]
                for other in bucket:
                    y = keys[other]
                    if ((unit_swaps or nodes[other][i] in partners[g])
                            and y[:i] == x[:i] and y[i + 1 :] == x[i + 1 :]):
                        neighbors.add(other)
                bucket.append(word)
        for other in neighbors:
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
    """Label the single edit separating two distance-1 sequences. An indel
    in a run of equal graphemes is placed at the run's first grapheme."""
    if len(a) < len(b):
        a, b = b, a
    i = common_prefix(a, b)
    if i == len(a):
        raise ValueError("sequences are identical")
    if len(a) == len(b) and a[i + 1 :] == b[i + 1 :]:
        return f"substitute {a[i]}~{b[i]} @{i}"
    if a[i + 1 :] != b[i:]:
        raise ValueError("sequences are not one edit apart")
    while i and a[i - 1] == a[i]:
        i -= 1
    return f"indel {a[i]} @{i}"


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
        seq_a, seq_b = graphemes[a], graphemes[b]
        i = common_prefix(seq_a, seq_b)
        if (len(seq_a) != len(seq_b) or i == len(seq_a) or seq_a[i + 1 :] != seq_b[i + 1 :]
                or not are_similar(seq_a[i], seq_b[i], alphabet)):
            continue
        if (counts[b], a) > (counts[a], b):
            a, b = b, a
        ga, gb = graphemes[a][i], graphemes[b][i]
        count_a, count_b = counts[a], counts[b]
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
