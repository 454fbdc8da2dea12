"""Line and paragraph positional statistics, plus rank-frequency data.

All rates are reported with their sample sizes: a :class:`Rate` keeps the
raw hit/total counts and exposes the fraction. Word lengths are measured in
graphemes, so the corpus must be normalized first. Both reports read the
corpus's columns: each line's type ids, and each type's graphemes and count
(:attr:`Corpus.counts`); no word type is counted here.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import contains, itemgetter, mul
from typing import NamedTuple

from selfcite.corpus import Corpus


class Rate(NamedTuple):
    hits: int
    total: int

    @property
    def value(self) -> float:
        return self.hits / self.total if self.total else float("nan")


class PositionalReport(NamedTuple):
    paragraph_initial_gallows_rate: Rate
    line_initial_prefix_rate: Rate
    line_internal_prefix_rate: Rate
    line_final_rates: dict[str, Rate]
    mean_token_length_overall: float
    mean_token_length_paragraph_first_lines: float
    token_count: int
    paragraph_first_line_token_count: int
    second_shorter_rate: Rate
    second_longer_rate: Rate
    second_word_subgroup_rate: Rate
    internal_subgroup_rate: Rate

    def as_dict(self) -> dict:
        """Flat JSON-ready mapping of every field with its sample size."""
        def rate(r: Rate) -> dict:
            return {"value": r.value, "hits": r.hits, "total": r.total}

        out = {
            "paragraph_initial_gallows_rate": rate(self.paragraph_initial_gallows_rate),
            "line_initial_prefix_rate": rate(self.line_initial_prefix_rate),
            "line_internal_prefix_rate": rate(self.line_internal_prefix_rate),
            "mean_token_length_overall": {
                "value": self.mean_token_length_overall,
                "total": self.token_count,
            },
            "mean_token_length_paragraph_first_lines": {
                "value": self.mean_token_length_paragraph_first_lines,
                "total": self.paragraph_first_line_token_count,
            },
            "second_shorter_rate": rate(self.second_shorter_rate),
            "second_longer_rate": rate(self.second_longer_rate),
            "second_word_subgroup_rate": rate(self.second_word_subgroup_rate),
            "internal_subgroup_rate": rate(self.internal_subgroup_rate),
        }
        for grapheme, r in sorted(self.line_final_rates.items()):
            out[f"line_final_rate[{grapheme}]"] = rate(r)
        return out


def is_subgroup(b: tuple[str, ...], a: tuple[str, ...]) -> bool:
    """True iff b's graphemes occur inside a's, in order: b is an ordered
    subsequence of a. The contiguous reading, a run of whole graphemes, is
    the substring test in :func:`positional_stats`."""
    rest = iter(a)
    return len(b) <= len(a) and all(g in rest for g in b)


def positional_stats(
    corpus: Corpus,
    gallows: frozenset[str] | set[str],
    prefixes: frozenset[str] | set[str],
    line_final_glyphs: frozenset[str] | set[str],
    contiguous_subgroup: bool = True,
) -> PositionalReport:
    """Compute the positional report over a normalized corpus.

    ``line_final_rates[g]`` is the fraction of g's occurrences that sit at
    the very end of a line (final grapheme of the line's final token).
    Pairwise rates (second word shorter/longer, subgroup) are computed only
    over lines with at least two tokens.

    What does not depend on a token's place (its length, its first
    grapheme, its line-final glyphs) is counted once per type and weighted
    by the type's count; each line adds its first and last token and, with
    two tokens or more, its second-word comparisons. Its reference is the
    per-token ``oracle_positional_stats`` in ``tests/helpers.py``.
    """
    # segmentations() also raises unless the corpus was normalized
    if not (graphemes := corpus.segmentations()):
        raise ValueError("empty corpus")
    ids, offsets, counts = corpus.ids, corpus.offsets, corpus.counts
    lengths = list(map(len, graphemes))

    total_tokens = len(ids)
    total_len = sum(map(mul, lengths, counts))
    prefix_tokens = sum(n for word, n in zip(graphemes, counts) if word[0] in prefixes)
    final_totals = {
        g: sum(word.count(g) * n for word, n in zip(graphemes, counts))
        for g in sorted(line_final_glyphs)
    }
    # inside[j]: token j + 1 is a subgroup of token j, over the whole id stream
    if contiguous_subgroup:
        # one character per grapheme, so that a substring is a run of whole
        # graphemes ("ch" must not match "c" followed by "h")
        chars = {g: chr(n) for n, g in enumerate(set(chain.from_iterable(graphemes)))}
        forms = ["".join(map(chars.__getitem__, word)) for word in graphemes]
        stream = list(map(forms.__getitem__, ids))
        inside = list(map(contains, stream, stream[1:]))
    else:
        stream = list(map(graphemes.__getitem__, ids))
        inside = list(map(is_subgroup, stream[1:], stream))

    line_count = first_prefixes = 0
    paragraph_count = paragraph_gallows = parafirst_len = parafirst_tokens = 0
    pairs = shorter = longer = second_subgroups = internal_subgroups = 0
    final_hits = Counter()
    for start, end, (paragraph_initial, _) in zip(offsets, offsets[1:], corpus.paragraph_flags()):
        if start == end:
            continue
        line_count += 1
        first = graphemes[ids[start]]
        if first[0] in prefixes:
            first_prefixes += 1
        if (last := graphemes[ids[end - 1]][-1]) in line_final_glyphs:
            final_hits[last] += 1
        if paragraph_initial:
            paragraph_count += 1
            if first[0] in gallows:
                paragraph_gallows += 1
            parafirst_len += sum(map(lengths.__getitem__, ids[start:end]))
            parafirst_tokens += end - start
        if end - start >= 2:
            pairs += 1
            first_len, second_len = lengths[ids[start]], lengths[ids[start + 1]]
            if second_len < first_len:
                shorter += 1
            elif second_len > first_len:
                longer += 1
            if inside[start]:
                second_subgroups += 1
            internal_subgroups += sum(inside[start + 1 : end - 1])

    return PositionalReport(
        paragraph_initial_gallows_rate=Rate(paragraph_gallows, paragraph_count),
        line_initial_prefix_rate=Rate(first_prefixes, line_count),
        line_internal_prefix_rate=Rate(
            prefix_tokens - first_prefixes, total_tokens - line_count
        ),
        line_final_rates={g: Rate(final_hits[g], total) for g, total in final_totals.items()},
        mean_token_length_overall=total_len / total_tokens,
        mean_token_length_paragraph_first_lines=(
            parafirst_len / parafirst_tokens if parafirst_tokens else float("nan")
        ),
        token_count=total_tokens,
        paragraph_first_line_token_count=parafirst_tokens,
        second_shorter_rate=Rate(shorter, pairs),
        second_longer_rate=Rate(longer, pairs),
        second_word_subgroup_rate=Rate(second_subgroups, pairs),
        # the neighbours from the third word on: n - 2 pairs in a line of n >= 2
        internal_subgroup_rate=Rate(internal_subgroups, total_tokens - line_count - pairs),
    )


def rank_frequency(corpus: Corpus) -> list[tuple[int, str, int]]:
    """Types by descending count, ties broken lexicographically, ranks 1-based."""
    # by word, then stably by descending count: no key tuple per type
    ordered = sorted(zip(corpus.words, corpus.counts), key=itemgetter(0))
    ordered.sort(key=itemgetter(1), reverse=True)
    return [(rank, word, count) for rank, (word, count) in enumerate(ordered, start=1)]
