"""Line and paragraph positional statistics, plus rank-frequency data.

All rates are reported with their sample sizes: a :class:`Rate` keeps the
raw hit/total counts and exposes the fraction. Word lengths are measured in
graphemes, so the corpus must be normalized first. The rank-frequency list
sorts the counts of the corpus's type table, :attr:`Corpus.types`; no word
type is counted here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from selfcite.corpus import Corpus


@dataclass(frozen=True)
class Rate:
    hits: int
    total: int

    @property
    def value(self) -> float:
        return self.hits / self.total if self.total else float("nan")


@dataclass(frozen=True)
class PositionalReport:
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


def is_subgroup(b: tuple[str, ...], a: tuple[str, ...], contiguous: bool = True) -> bool:
    """True iff b's graphemes occur inside a's, in order.

    Contiguous (the default) means substring of the grapheme sequence; the
    non-contiguous variant accepts any ordered subsequence. Both readings
    are reflexive and transitive.
    """
    if len(b) > len(a):
        return False
    if contiguous:
        return any(a[i : i + len(b)] == b for i in range(len(a) - len(b) + 1))
    it = iter(a)
    return all(g in it for g in b)


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
    """
    # segmentations() also raises unless the corpus was normalized
    if not corpus.types.segmentations():
        raise ValueError("empty corpus")

    para_first = [0, 0]
    line_first = [0, 0]
    line_internal = [0, 0]
    final_hits = Counter()
    final_totals = Counter()
    total_len = 0
    total_tokens = 0
    parafirst_len = 0
    parafirst_tokens = 0
    second = {"shorter": 0, "longer": 0, "pairs": 0, "subgroup": 0}
    internal_sub = [0, 0]

    for line in corpus.lines:
        if not line.tokens:
            continue
        words = [t.graphemes for t in line.tokens]
        for m, word in enumerate(words):
            total_len += len(word)
            total_tokens += 1
            if line.paragraph_initial:
                parafirst_len += len(word)
                parafirst_tokens += 1
            bucket = line_first if m == 0 else line_internal
            bucket[1] += 1
            if word[0] in prefixes:
                bucket[0] += 1
            last_of_line = m == len(words) - 1
            for k, g in enumerate(word):
                if g in line_final_glyphs:
                    final_totals[g] += 1
                    if last_of_line and k == len(word) - 1:
                        final_hits[g] += 1
            if m >= 2 and is_subgroup(word, words[m - 1], contiguous_subgroup):
                internal_sub[0] += 1
            if m >= 2:
                internal_sub[1] += 1
        if line.paragraph_initial:
            para_first[1] += 1
            if words[0][0] in gallows:
                para_first[0] += 1
        if len(words) >= 2:
            second["pairs"] += 1
            if len(words[1]) < len(words[0]):
                second["shorter"] += 1
            elif len(words[1]) > len(words[0]):
                second["longer"] += 1
            if is_subgroup(words[1], words[0], contiguous_subgroup):
                second["subgroup"] += 1

    return PositionalReport(
        paragraph_initial_gallows_rate=Rate(para_first[0], para_first[1]),
        line_initial_prefix_rate=Rate(line_first[0], line_first[1]),
        line_internal_prefix_rate=Rate(line_internal[0], line_internal[1]),
        line_final_rates={
            g: Rate(final_hits[g], final_totals[g]) for g in sorted(line_final_glyphs)
        },
        mean_token_length_overall=total_len / total_tokens,
        mean_token_length_paragraph_first_lines=(
            parafirst_len / parafirst_tokens if parafirst_tokens else float("nan")
        ),
        token_count=total_tokens,
        paragraph_first_line_token_count=parafirst_tokens,
        second_shorter_rate=Rate(second["shorter"], second["pairs"]),
        second_longer_rate=Rate(second["longer"], second["pairs"]),
        second_word_subgroup_rate=Rate(second["subgroup"], second["pairs"]),
        internal_subgroup_rate=Rate(internal_sub[0], internal_sub[1]),
    )


def rank_frequency(corpus: Corpus) -> list[tuple[int, str, int]]:
    """Types by descending count, ties broken lexicographically, ranks 1-based."""
    entries = corpus.types.entries
    ordered = sorted(entries, key=lambda word: (-entries[word].count, word))
    return [(rank, word, entries[word].count) for rank, word in enumerate(ordered, start=1)]
