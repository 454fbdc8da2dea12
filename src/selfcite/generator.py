"""Self-citation text generation and its statistical signature check.

The generator writes tokens one at a time. With ``copy_probability`` it
copies a recently written word (biased toward the same line and the same
position in lines just above) and applies a small number of one-cost edits;
otherwise it emits a seed word. Line- and paragraph-position effects mirror
the ones observed in the analyzed corpora: paragraph-opening words gain a
gallows glyph, line-opening words gain a prefix glyph, and the second word
of a line sometimes repeats the first word with that freshly added glyph
stripped again.

``validate_signature`` measures whether a corpus shows the tell-tale
signature of such a process: identical/similar words clustering near the
writing position, proportions decaying over line distance, and immediate
word repetition not being avoided.
"""

from __future__ import annotations

import json
import math
import random
import sys
from bisect import bisect
from collections import deque
from functools import cache
from itertools import accumulate, chain, count
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from selfcite.corpus import (
    Corpus,
    EmptyCorpusError,
    Locus,
    normalize,
    read_text,
    require_int,
    require_strings,
)
from selfcite.cooccur import GridSpec, compute_grids, summarize_decay
from selfcite.editdist import Alphabet, CheckedRecord

_PAGE_CAPACITY_LINES = 25

MUTATION_KINDS = ("insert", "delete", "substitute_similar")

#: Source-selection weight families, keyed by name so parameter files can
#: pick one; each maps (line_offset, position_offset) -> weight, the offsets
#: of a candidate word from the one being written.
SOURCE_BIAS_KERNELS = {
    "inverse_distance": lambda i, d: 1.0 / ((1 + i) * (1 + abs(d))),
    "uniform": lambda i, d: 1.0,
}


# Type checks for values read from parameter files; each ValueError names the
# parameter, so a wrongly typed file value is a data error, not a TypeError.

def _number(name: str, value) -> float:
    # ``not <=`` rejects NaN too, and an int past the float range
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return value


def _pairs(name: str, value) -> tuple[tuple, ...]:
    """``value``, a dict or a sequence of pairs, as (key, weight) pairs
    with numeric weights, in order."""
    if isinstance(value, dict):
        value = tuple(value.items())
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in value
    ):
        raise ValueError(
            f"{name} must be an object or a list of [value, weight] pairs, "
            f"got {value!r}"
        )
    return tuple((k, float(_number(name, v))) for k, v in value)


def _count_key(name: str, key) -> int:
    if isinstance(key, str):  # JSON object keys arrive as strings
        try:
            return int(key)
        except ValueError:
            pass
    elif isinstance(key, int) and not isinstance(key, bool):
        return key
    raise ValueError(f"{name} has a non-integer value {key!r}")


def _distribution(name: str, value) -> tuple[tuple[int, float], ...]:
    items = tuple(sorted((_count_key(name, k), v) for k, v in _pairs(name, value)))
    if not items:
        raise ValueError(f"{name} must not be empty")
    if any(v < 0 for _, v in items):
        raise ValueError(f"{name} probabilities must be nonnegative")
    total = sum(v for _, v in items)
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, got {total}")
    return items


class _GeneratorParamsFields(NamedTuple):
    seed_words: tuple[str, ...] = ("daiin", "ol", "chedy")
    copy_probability: float = 0.88
    mutation_count_distribution: tuple[tuple[int, float], ...] = ((0, 0.45), (1, 0.35), (2, 0.2))
    mutation_kind_weights: tuple[tuple[str, float], ...] = (
        ("insert", 0.35), ("delete", 0.35), ("substitute_similar", 0.3),
    )
    source_window_lines: int = 10
    source_position_bias: str = "inverse_distance"
    line_length_distribution: tuple[tuple[int, float], ...] = (
        (5, 0.08), (6, 0.14), (7, 0.18), (8, 0.2),
        (9, 0.16), (10, 0.12), (11, 0.08), (12, 0.04),
    )
    paragraph_length_distribution: tuple[tuple[int, float], ...] = (
        (2, 0.1), (3, 0.2), (4, 0.25), (5, 0.2), (6, 0.15), (8, 0.1),
    )
    line_initial_prefix_probability: float = 0.65
    prefix_graphemes: tuple[str, ...] = ("y", "o", "s", "d")
    paragraph_initial_gallows_probability: float = 0.86
    gallows_graphemes: tuple[str, ...] = ("k", "t", "p", "f")
    second_word_strip_probability: float = 0.05
    line_final_glyph_probability: float = 0.0
    line_final_glyphs: tuple[str, ...] = ("m",)
    excluded_graphemes: tuple[str, ...] = ("*",)
    rng_seed: int = 1
    target_token_count: int = 10_000


class GeneratorParams(CheckedRecord, _GeneratorParamsFields):
    """Full parameterization of the generation process; seedable. The field
    defaults are the values calibrated with ``scripts/calibrate.py``."""

    __slots__ = ()

    def _checked(self):
        normalized = {
            name: require_strings(name, getattr(self, name))
            for name in (
                "seed_words",
                "prefix_graphemes",
                "gallows_graphemes",
                "line_final_glyphs",
                "excluded_graphemes",
            )
        }
        for name in (
            "mutation_count_distribution",
            "line_length_distribution",
            "paragraph_length_distribution",
        ):
            normalized[name] = _distribution(name, getattr(self, name))
        kinds = normalized["mutation_kind_weights"] = tuple(
            (str(k), v)
            for k, v in _pairs("mutation_kind_weights", self.mutation_kind_weights)
        )
        self = tuple.__new__(type(self), map(normalized.get, self._fields, self))
        for name in ("source_window_lines", "rng_seed", "target_token_count"):
            require_int(name, getattr(self, name))
        if not self.seed_words:
            raise ValueError("need at least one seed word")
        for name in (
            "copy_probability",
            "line_initial_prefix_probability",
            "paragraph_initial_gallows_probability",
            "second_word_strip_probability",
            "line_final_glyph_probability",
        ):
            value = _number(name, getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for kind, weight in kinds:
            if kind not in MUTATION_KINDS:
                raise ValueError(f"unknown mutation kind {kind!r}")
            if weight < 0:
                raise ValueError("mutation_kind_weights must be nonnegative")
        if not 0.0 < (total := sum(w for _, w in kinds)) < math.inf:
            raise ValueError(
                f"mutation_kind_weights must total a positive finite number, got {total}"
            )
        if any(k < 0 for k, _ in self.mutation_count_distribution):
            raise ValueError("mutation counts must be nonnegative")
        if any(k < 1 for k, _ in self.line_length_distribution):
            raise ValueError("line lengths must be >= 1")
        if any(k < 1 for k, _ in self.paragraph_length_distribution):
            raise ValueError("paragraph lengths must be >= 1")
        if self.source_window_lines < 1:
            raise ValueError("source_window_lines must be >= 1")
        bias = self.source_position_bias
        if not isinstance(bias, str) or bias not in SOURCE_BIAS_KERNELS:
            raise ValueError(f"unknown source_position_bias {bias!r}")
        if self.target_token_count < 1:
            raise ValueError("target_token_count must be >= 1")
        return self

    @classmethod
    def from_dict(cls, data: dict) -> "GeneratorParams":
        """The defaults with the keys of ``data`` set; a ``version`` key,
        which earlier parameter files carry, is ignored."""
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        data = dict(data)
        data.pop("version", None)
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise ValueError(f"unknown generator parameters: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "GeneratorParams":
        text = read_text(path)
        try:
            return cls.from_dict(json.loads(text))
        except ValueError as exc:  # JSONDecodeError is one too
            raise ValueError(f"malformed generator parameters {path}: {exc}") from None


def _cumulative(distribution) -> tuple:
    """The values of a (value, weight) distribution, with the running totals
    and the float total that ``random.choices`` builds from plain weights
    (``list(accumulate(...))``, ``cum[-1] + 0.0``): checked weights make
    that total positive and finite."""
    cum = list(accumulate(v for _, v in distribution))
    return tuple(k for k, _ in distribution), cum, cum[-1] + 0.0


def _draw(rng: random.Random, table):
    """One weighted draw from a ``_cumulative`` table: the single
    ``random()`` call and ``bisect`` of ``random.choices(values,
    weights)[0]``, for a table built once instead of per draw. Uniform draws likewise call
    ``rng._randbelow(n)``, the one call that ``randrange(n)`` and
    ``choice(seq)`` make for ``n`` >= 1. The ``rng.choices``, ``randrange``
    and ``choice`` oracle tests in ``tests/`` catch any change to these
    CPython internals."""
    values, cum, total = table
    return values[bisect(cum, rng.random() * total, 0, len(cum) - 1)]


def _kind_tables(params: GeneratorParams) -> dict[tuple[bool, bool], tuple]:
    """The mutation-kind ``_cumulative`` table for each (can delete, can
    substitute) case: the kinds of positive weight, in parameter order, that
    the word allows, or a lone insert when none is left."""
    tables = {}
    for can_delete in (False, True):
        for can_substitute in (False, True):
            kinds = [
                (kind, weight)
                for kind, weight in params.mutation_kind_weights
                if weight > 0
                and (kind != "delete" or can_delete)
                and (kind != "substitute_similar" or can_substitute)
            ] or [("insert", 1.0)]
            tables[can_delete, can_substitute] = _cumulative(kinds)
    return tables


def _mutate(seq, rng, partners, kind_tables, insertable):
    """Apply one cost-1 edit, never producing an empty token."""
    eligible = [i for i, g in enumerate(seq) if partners[g]]  # can take a similar substitute
    kind = _draw(rng, kind_tables[len(seq) > 1, bool(eligible)])
    randbelow = rng._randbelow
    if kind == "insert":
        pos = randbelow(len(seq) + 1)
        return seq[:pos] + (insertable[randbelow(len(insertable))],) + seq[pos:]
    if kind == "delete":
        pos = randbelow(len(seq))
        return seq[:pos] + seq[pos + 1 :]
    pos = eligible[randbelow(len(eligible))]
    similar = partners[seq[pos]]
    return seq[:pos] + (similar[randbelow(len(similar))],) + seq[pos + 1 :]


def _source_weights(bias: str, reach: int):
    """Kernel weights for positions below ``reach`` in lines of at most
    ``reach`` words. ``by_offset(i)[reach + d]`` weighs a word ``i`` lines
    above the current one (0 = the current line) and ``d`` positions right
    of the one being written; ``rows(i, length)[m]``, a slice of that list,
    weighs a ``length``-word line's words for position ``m``."""
    kernel = SOURCE_BIAS_KERNELS[bias]

    @cache
    def by_offset(i):
        return [kernel(i, d) for d in range(-reach, reach + 1)]

    @cache
    def rows(i, length):
        weights = by_offset(i)
        return tuple(weights[reach - m : reach - m + length] for m in range(reach))

    return by_offset, rows


def _pick_source(above, rows, current_line, own, m, rng):
    """Weighted draw of a source word for position ``m`` from the current
    line's words, weighted by ``own``, then the words ``above``, nearest
    line first, each line weighted by its ``rows`` entry.

    Reproduces ``rng.choices(candidates, weights)[0]``: the same kernel
    weights in the same order, one C-level ``accumulate`` and one
    ``random()``. The weights are positive, so their total needs no check."""
    n = len(current_line)
    if not n and not above:
        return None
    cum = list(accumulate(chain(own, chain.from_iterable(map(itemgetter(m), rows)))))
    k = bisect(cum, rng.random() * cum[-1], 0, len(cum) - 1)
    return current_line[k] if k < n else above[k - n]


def generate(params: GeneratorParams, alphabet: Alphabet) -> Corpus:
    """Generate a corpus of ``params.target_token_count`` tokens.

    Deterministic for a fixed ``rng_seed``. Pages get synthetic loci
    ``<gNNN.P.M>``, and the corpus round-trips through the transliteration
    serializer.
    """
    # Words are canonical segmentations, so distinct ones join to distinct raw words.
    return Corpus.from_rows(_written_lines(params, alphabet), "".join, tuple)


def _written_lines(params: GeneratorParams, alphabet: Alphabet):
    """The (locus, words' graphemes, paragraph id) records of :func:`generate`."""
    seeds = [alphabet.segment(word) for word in params.seed_words]
    for name in ("prefix_graphemes", "gallows_graphemes", "line_final_glyphs"):
        for g in getattr(params, name):
            if g not in alphabet:
                raise ValueError(f"{name} entry {g!r} is not in the alphabet")
    insertable = tuple(
        g for g in alphabet.graphemes if g not in params.excluded_graphemes
    ) or alphabet.graphemes
    paragraph_lengths = _cumulative(params.paragraph_length_distribution)
    line_lengths = _cumulative(params.line_length_distribution)
    mutation_counts = _cumulative(params.mutation_count_distribution)
    kind_tables = _kind_tables(params)
    partners = alphabet.similar_partners
    segment = alphabet.segment
    target = params.target_token_count
    # no line, cut at the target, is longer than ``reach``
    reach = min(max(k for k, _ in params.line_length_distribution), target)
    by_offset, rows = _source_weights(params.source_position_bias, reach)
    own = by_offset(0)
    copy_probability = params.copy_probability
    strip_probability = params.second_word_strip_probability
    finals = params.line_final_glyphs
    final_probability = params.line_final_glyph_probability
    # Mutations and prepends can abut characters that segment as one
    # grapheme (e.g. c + h); re-segmenting keeps tokens canonical so the
    # grapheme sequence always matches the surface form. ``segmented``
    # memoises the segmentation of each surface form.
    segmented: dict[str, tuple[str, ...]] = {}

    def canonical(word):
        """The segmentation of ``word``'s surface form: ``word`` itself when
        canonical, so the memo holds ``word``'s strings, not new ones."""
        raw = "".join(word)
        graphemes = segmented.get(raw)
        if graphemes is None:
            graphemes = segment(raw)
            if graphemes == word:
                graphemes = word
            segmented[raw] = graphemes
        return graphemes

    rng = random.Random(params.rng_seed)
    random_, randbelow = rng.random, rng._randbelow
    # the lines a source draw can read, nearest first: the window's but the current one
    above: deque[list[tuple[str, ...]]] = deque(maxlen=params.source_window_lines - 1)
    emitted = 0
    page_no = 1
    page = "g001"
    page_lines = 0
    para_id = 0

    while emitted < target:
        para_len = _draw(rng, paragraph_lengths)
        if page_lines and page_lines + para_len > _PAGE_CAPACITY_LINES:
            page_no += 1
            page = f"g{page_no:03d}"
            page_lines = 0
        for line_idx in range(para_len):
            if emitted >= target:
                break
            line_len = _draw(rng, line_lengths)
            above_words = list(chain.from_iterable(above))
            above_rows = tuple(map(rows, count(1), map(len, above)))
            # a paragraph's opening word may gain a gallows glyph, any other
            # line's opening word a prefix glyph
            if line_idx == 0:
                initials = params.gallows_graphemes
                initial_probability = params.paragraph_initial_gallows_probability
            else:
                initials = params.prefix_graphemes
                initial_probability = params.line_initial_prefix_probability
            current: list[tuple[str, ...]] = []
            added_initial = False
            for m in range(min(line_len, target - emitted)):
                if m == 1 and added_initial and random_() < strip_probability:
                    word = first_base
                else:
                    word = None
                    # every line written is nonempty, and so is the
                    # current one from m = 1
                    if (m or emitted) and random_() < copy_probability:
                        # the window can still be empty, e.g. at position 0
                        # with a one-line source window
                        word = _pick_source(above_words, above_rows, current,
                                            own[reach - m : reach], m, rng)
                    if word is None:
                        word = seeds[randbelow(len(seeds))]
                    elif k := _draw(rng, mutation_counts):
                        # an unmutated copy is already canonical
                        for _ in range(k):
                            word = _mutate(word, rng, partners, kind_tables, insertable)
                        word = canonical(word)
                if m == 0:
                    first_base = word
                    if initials and random_() < initial_probability:
                        word = (initials[randbelow(len(initials))],) + word
                        word = canonical(word)
                        added_initial = True
                if m == line_len - 1 and finals and random_() < final_probability:
                    word += (finals[randbelow(len(finals))],)
                    word = canonical(word)
                current.append(word)
            emitted += len(current)
            page_lines += 1
            yield (Locus(page=page, unit="P", line_no=page_lines,
                         raw_tag=f"<{page}.P.{page_lines}>"), current, para_id)
            above.appendleft(current)
        para_id += 1


def shuffle_control(corpus: Corpus, rng_seed: int) -> Corpus:
    """Uniformly permute all tokens, preserving every line's token count. The
    id stream is shuffled as the token list was: the permutation depends on
    the length alone."""
    if not corpus.loci:
        raise ValueError("empty corpus")
    ids = list(corpus.ids)
    random.Random(rng_seed).shuffle(ids)
    rows = map(ids.__getitem__, map(slice, corpus.offsets, corpus.offsets[1:]))
    return Corpus.from_rows(zip(corpus.loci, rows, corpus.paragraph_ids),
                            corpus.words.__getitem__, corpus.graphemes.__getitem__)


class SignatureReport(NamedTuple):
    """Co-occurrence signature of a corpus, as used by the generator check."""

    token_count: int
    adjacency_lift: float
    row_decay: dict[int, bool]
    natural_text_contrast: float
    row_means: dict[int, dict[int, float]]

    def __repr__(self) -> str:  # without the bulky row_means
        return (f"SignatureReport(token_count={self.token_count!r}, "
                f"adjacency_lift={self.adjacency_lift!r}, row_decay={self.row_decay!r}, "
                f"natural_text_contrast={self.natural_text_contrast!r})")

    @property
    def row_decay_ok(self) -> bool:
        return all(self.row_decay.values())

    def as_dict(self) -> dict:
        return {
            "token_count": self.token_count,
            "adjacency_lift": self.adjacency_lift,
            "row_decay": {str(d): ok for d, ok in sorted(self.row_decay.items())},
            "row_decay_ok": self.row_decay_ok,
            "natural_text_contrast": self.natural_text_contrast,
            "row_means": {
                str(d): {f"n-{i}": v for i, v in sorted(means.items())}
                for d, means in sorted(self.row_means.items())
            },
        }


def validate_signature(
    corpus: Corpus, alphabet: Alphabet, min_graphemes: int = 2
) -> SignatureReport:
    """Measure the self-citation signature of a corpus over the default
    window of 9 previous lines and 6 positions each side.

    ``adjacency_lift`` is the identical-word proportion immediately left of
    the writing position divided by the mean proportion of the deepest row;
    ``row_decay`` records, per distance, whether rows n-1..n-3 average above
    rows n-7..n-9; ``natural_text_contrast`` is the immediate-repetition
    proportion itself, near zero for natural running text. Raises
    :class:`EmptyCorpusError` when fewer than 2000 tokens of at least
    ``min_graphemes`` graphemes remain.
    """
    normalized = normalize(corpus, alphabet, min_graphemes)
    if (tokens := normalized.token_count()) < 2000:
        raise EmptyCorpusError(
            f"corpus too small: {tokens} tokens of at least {min_graphemes} "
            "graphemes, need 2000"
        )
    spec = GridSpec(alphabet=alphabet)
    grids = compute_grids(normalized, spec, (0, 1, 2))
    decays = {d: summarize_decay(grid) for d, grid in grids.items()}
    adjacent = grids[0].proportion(0, -1) or 0.0
    deep = grids[0].row_mean(spec.max_line_offset)
    if deep is None:
        lift = float("nan")
    elif deep == 0.0:
        lift = float("inf") if adjacent > 0 else 0.0
    else:
        lift = adjacent / deep
    return SignatureReport(
        token_count=corpus.token_count(),
        adjacency_lift=lift,
        row_decay={d: decay for d, (_, decay) in decays.items()},
        natural_text_contrast=adjacent,
        row_means={d: means for d, (means, _) in decays.items()},
    )
