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
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from selfcite.corpus import Corpus
from selfcite.editdist import Alphabet, are_similar


@dataclass(frozen=True)
class TypeInfo:
    count: int
    graphemes: tuple[str, ...]


@dataclass(frozen=True)
class TypeTable:
    """Distinct word types with counts and grapheme sequences."""

    entries: dict[str, TypeInfo]

    @classmethod
    def from_corpus(cls, corpus: Corpus, alphabet: Alphabet | None = None) -> "TypeTable":
        counts = Counter()
        graphemes: dict[str, tuple[str, ...]] = {}
        for token in corpus.iter_tokens():
            counts[token.raw] += 1
            if token.raw not in graphemes:
                if token.graphemes is not None:
                    graphemes[token.raw] = token.graphemes
                elif alphabet is not None:
                    graphemes[token.raw] = alphabet.segment(token.raw)
                else:
                    raise ValueError(
                        f"token {token.raw!r} has no segmentation and no "
                        "alphabet was given"
                    )
        return cls({w: TypeInfo(counts[w], graphemes[w]) for w in counts})

    def grapheme_counts(self) -> Counter:
        """Occurrences of each grapheme across all tokens."""
        counts = Counter()
        for info in self.entries.values():
            for g in info.graphemes:
                counts[g] += info.count
        return counts


@dataclass(frozen=True)
class SimilarityGraph:
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
    if not table.entries:
        raise ValueError("type table is empty")
    nodes = {
        word: info.graphemes
        for word, info in table.entries.items()
        if info.count >= min_freq
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


@dataclass(frozen=True)
class RatioRow:
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
    rows = []
    for a, b in sorted(graph.edges()):
        seq_a = table.entries[a].graphemes
        seq_b = table.entries[b].graphemes
        if len(seq_a) != len(seq_b):
            continue
        diff = [(x, y) for x, y in zip(seq_a, seq_b) if x != y]
        if len(diff) != 1 or not are_similar(diff[0][0], diff[0][1], alphabet):
            continue
        count_a = table.entries[a].count
        count_b = table.entries[b].count
        if (count_b, a) > (count_a, b):
            a, b = b, a
            count_a, count_b = count_b, count_a
            diff = [(diff[0][1], diff[0][0])]
        ga, gb = diff[0]
        rows.append(
            RatioRow(
                type_a=a,
                type_b=b,
                grapheme_a=ga,
                grapheme_b=gb,
                count_a=count_a,
                count_b=count_b,
                count_ratio=count_b / count_a,
                grapheme_count_ratio=(
                    grapheme_counts[gb] / grapheme_counts[ga]
                    if grapheme_counts[ga]
                    else float("inf")
                ),
            )
        )
    return rows
