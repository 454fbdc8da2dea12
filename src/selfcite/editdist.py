"""Grapheme alphabets with similarity classes and a weighted edit distance.

An :class:`Alphabet` declares the grapheme inventory (multi-character
surface forms such as "ch" are allowed), groups of graphemes that count as
interchangeable, and the three edit costs. Distances are computed over
grapheme sequences, not raw characters, so deleting "ch" from "chol" is a
single edit.

Cost model: insertion and deletion cost ``indel_cost`` each; substituting a
grapheme by a similar one costs ``similar_substitution_cost``; substituting
by a dissimilar one costs ``dissimilar_substitution_cost``. Configurations
where a dissimilar substitution is dearer than a delete-plus-insert are
rejected, which keeps the per-symbol costs a metric and the sequence
distance well behaved.

One kernel computes the distance: :func:`bounded_distances`, a banded DP in
numpy over a whole batch of word pairs. It reads the words from a
:func:`word_arrays` table, which the co-occurrence grids build once for their
prefilter and for every distinct window pair of this batch;
:func:`edit_distance` passes it a batch of one.
Its reference is the scalar banded DP ``oracle_bounded_distance`` in
``tests/helpers.py``.
"""

from __future__ import annotations

import re
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

# numpy is imported inside the distance routines only, so the commands that
# never compute a distance do not pay for loading it.
if TYPE_CHECKING:
    import numpy as np


class SegmentationError(ValueError):
    """A token cannot be split into inventory graphemes."""

    def __init__(self, token: str, position: int):
        self.token = token
        self.position = position
        super().__init__(
            f"cannot segment token {token!r}: no grapheme of the alphabet "
            f"matches at character {position} ({token[position]!r})"
        )


def checked_replace(self, /, **changes):
    """namedtuple's ``_replace`` through the record's own ``__new__``, so a
    replaced field is checked as a constructed one is. A record that checks
    its fields sets this as ``_replace`` and as ``__replace__``, which
    ``copy.replace`` calls; namedtuple's own builds the tuple unchecked."""
    record = type(self)(*map(changes.pop, self._fields, self))
    if changes:
        raise ValueError(f"Got unexpected field names: {list(changes)!r}")
    return record


@classmethod
def checked_make(cls, iterable):
    """namedtuple's ``_make`` through the record's own ``__new__``; a record
    that checks its fields sets this as ``_make``. Its ``__new__`` then
    stores normalized fields with ``tuple.__new__``, since the base's
    ``_replace`` calls ``_make``."""
    values = tuple(iterable)
    if len(values) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
    return cls(*values)


class _AlphabetFields(NamedTuple):
    graphemes: tuple[str, ...]
    similarity_groups: tuple[frozenset[str], ...] = ()
    similar_substitution_cost: int = 1
    dissimilar_substitution_cost: int = 2
    indel_cost: int = 1


class Alphabet(_AlphabetFields):
    """Grapheme inventory, similarity classes, and edit costs."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a plain tuple build: the base's _replace calls the checked _make
        self = tuple.__new__(cls, (
            tuple(self.graphemes),
            tuple(frozenset(g) for g in self.similarity_groups),
            *self[2:],
        ))
        if not self.graphemes:
            raise ValueError("alphabet needs at least one grapheme")
        if any(not g for g in self.graphemes):
            raise ValueError("empty grapheme in inventory")
        if len(set(self.graphemes)) != len(self.graphemes):
            raise ValueError("duplicate graphemes in inventory")
        inventory = set(self.graphemes)
        for group in self.similarity_groups:
            unknown = group - inventory
            if unknown:
                raise ValueError(
                    f"similarity group {sorted(group)} contains graphemes "
                    f"outside the inventory: {sorted(unknown)}"
                )
        for name in (
            "similar_substitution_cost",
            "dissimilar_substitution_cost",
            "indel_cost",
        ):
            cost = getattr(self, name)
            if isinstance(cost, bool) or not isinstance(cost, int) or cost < 1:
                raise ValueError(f"{name} must be a positive integer, got {cost!r}")
        if self.similar_substitution_cost > self.dissimilar_substitution_cost:
            raise ValueError(
                "similar_substitution_cost must not exceed "
                "dissimilar_substitution_cost"
            )
        if self.dissimilar_substitution_cost > 2 * self.indel_cost:
            # Otherwise substitution is never chosen and distances silently
            # degenerate to pure indel counts.
            raise ValueError(
                "dissimilar_substitution_cost must be at most twice indel_cost"
            )
        return self

    _replace = __replace__ = checked_replace
    _make = checked_make

    @classmethod
    def single_characters(cls, chars: Iterable[str]) -> "Alphabet":
        """Alphabet of single characters with unit costs.

        This is the profile used for plain-language comparison corpora,
        where one changed letter counts as one edit.
        """
        return cls(graphemes=tuple(sorted(set(chars))), dissimilar_substitution_cost=1)

    # -- derived lookup structures (cached, not part of equality) --

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.graphemes)}

    @cached_property
    def _grapheme_re(self) -> re.Pattern:
        # Longest first: an alternation takes its first branch that matches,
        # so "ch" beats "c" wherever both do.
        longest = sorted(self.graphemes, key=len, reverse=True)
        return re.compile("|".join(map(re.escape, longest)))

    @cached_property
    def similar_id_pairs(self) -> frozenset[tuple[int, int]]:
        """Canonical (lo, hi) id pairs of distinct similar graphemes."""
        pairs = set()
        ids = self._ids
        for group in self.similarity_groups:
            members = sorted(ids[g] for g in group)
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    pairs.add((a, b))
        return frozenset(pairs)

    @cached_property
    def similar_partners(self) -> dict[str, tuple[str, ...]]:
        """For each grapheme, the distinct similar graphemes, sorted."""
        partners: dict[str, set[str]] = {g: set() for g in self.graphemes}
        for group in self.similarity_groups:
            for g in group:
                partners[g].update(group - {g})
        return {g: tuple(sorted(p)) for g, p in partners.items()}

    def __contains__(self, grapheme: str) -> bool:
        return grapheme in self._ids

    def encode(self, graphemes: Iterable[str]) -> tuple[int, ...]:
        """Map a grapheme sequence to inventory ids, validating membership."""
        try:
            return tuple(map(self._ids.__getitem__, graphemes))
        except KeyError as exc:
            raise ValueError(f"unknown grapheme {exc.args[0]!r}") from None

    def segment(self, raw: str) -> tuple[str, ...]:
        """Split a raw token into graphemes, longest match first.

        Left to right, the longest inventory grapheme that matches at each
        position wins, so "ch" beats "c" in "chol". Raises
        :class:`SegmentationError` at the first position no grapheme covers.
        """
        found = self._grapheme_re.findall(raw)
        if "".join(found) != raw:  # the matches skipped some character
            pos = 0
            for match in self._grapheme_re.finditer(raw):
                if match.start() != pos:
                    break
                pos = match.end()
            raise SegmentationError(raw, pos)
        return tuple(found)


def are_similar(a: str, b: str, alphabet: Alphabet) -> bool:
    """True iff the graphemes are equal or share a similarity group."""
    ia, ib = alphabet.encode((a, b))
    return ia == ib or (min(ia, ib), max(ia, ib)) in alphabet.similar_id_pairs


def bounded_distance_ids(
    a: tuple[int, ...], b: tuple[int, ...], bound: int, alphabet: Alphabet
) -> int | None:
    """Distance between two id sequences if it is at most ``bound``, else None.

    A batch of one through :func:`bounded_distances`, after stripping the
    common prefix and suffix, which metric costs never change.
    """
    import numpy as np

    start = _common_prefix(a, b)
    a, b = a[start:], b[start:]
    end = _common_prefix(a[::-1], b[::-1])
    a, b = a[: len(a) - end], b[: len(b) - end]
    first, second = np.arange(2).reshape(2, 1)
    words = word_arrays((len(a), len(b)), a + b, alphabet)
    value = int(bounded_distances(words, first, second, bound, alphabet)[0])
    return value if value <= bound else None


def _common_prefix(x: Sequence[int], y: Sequence[int]) -> int:
    mismatches = (k for k, (p, q) in enumerate(zip(x, y)) if p != q)
    return next(mismatches, min(len(x), len(y)))


def word_arrays(lengths: Sequence[int], ids: Iterable[int], alphabet: Alphabet):
    """(table, lengths, masks) of words given by their lengths and by their
    grapheme ids one word after another.

    ``table`` holds one word per row, padded with the id
    ``len(alphabet.graphemes)``, in the smallest unsigned dtype that holds
    that id (uint8 up to 255 graphemes); ``lengths`` is int32; ``masks`` is
    uint64, with bit ``g % 64`` set for each grapheme ``g`` of the word."""
    import numpy as np

    n_graphemes = len(alphabet.graphemes)
    lengths = np.fromiter(lengths, dtype=np.int32, count=len(lengths))
    width = int(lengths.max(initial=0))
    dtype = np.min_scalar_type(n_graphemes)
    table = np.full((len(lengths), width), n_graphemes, dtype=dtype)
    table[np.arange(width) < lengths[:, None]] = np.fromiter(ids, dtype)
    # Each id's bit, and none for the padding id.
    bits = np.left_shift(np.uint64(1), np.arange(n_graphemes + 1, dtype=np.uint64) % 64)
    bits[n_graphemes] = 0
    masks = np.zeros(len(lengths), dtype=np.uint64)
    for column in table.T:  # one column at a time: no 2-D uint64 temporary
        masks |= bits[column]
    return table, lengths, masks


def within_lower_bounds(lengths_a, lengths_b, masks_a, masks_b, bound: int, indel: int):
    """False where the length or the grapheme-mask lower bound puts the words
    of lengths ``lengths_a[p]``, ``lengths_b[p]`` and :func:`word_arrays`
    masks ``masks_a[p]``, ``masks_b[p]`` beyond ``bound``.

    Each grapheme of length difference costs an indel, and a grapheme present
    in one word only costs at least half an edit, so ``popcount(xor)`` of the
    masks may not exceed ``2 * bound``; folding ids mod 64 only merges bits.
    """
    import numpy as np

    return (np.abs(lengths_a - lengths_b) <= bound // indel) & (
        np.bitwise_count(masks_a ^ masks_b) <= 2 * bound
    )


# Pairs walked together by the batched DP: enough to amortize numpy's
# per-call overhead over a row, few enough that a chunk's band stays in cache.
_CHUNK = 8192


def bounded_distances(
    words: tuple[np.ndarray, np.ndarray, np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    bound: int,
    alphabet: Alphabet,
) -> np.ndarray:
    """Weighted distances of many word pairs, exact up to ``bound``.

    Pair ``p`` is words ``a[p]`` and ``b[p]`` of ``words``, the
    ``(table, lengths, masks)`` that :func:`word_arrays` builds from ids as
    returned by :meth:`Alphabet.encode`. The result holds each
    pair's distance when it is at most ``bound`` and ``bound + 1`` otherwise,
    in the smallest unsigned dtype that fits ``bound + 1``.

    The band reads its substitution costs from a flat ``(G+1) x (G+1)``
    table, ``G`` graphemes plus the padding id, at the first word's id times
    ``G + 1`` plus the second word's id. Both row arrays are held in the
    smallest unsigned dtype that fits ``(G+1)**2 - 1`` (uint16 up to 255
    graphemes).

    The lower bounds of :func:`within_lower_bounds` settle most pairs without
    a DP. The rest run a banded DP over the ``2 * (bound // indel) + 1``
    diagonals around the main one, grouped by the length of the first word so
    that each chunk walks its rows together, and a chunk stops once every
    pair's row minimum exceeds the bound (Ukkonen's cut-off). The scalar
    ``oracle_bounded_distance`` in ``tests/helpers.py`` is its test reference.
    """
    import numpy as np

    inf = bound + 1
    out = np.full(len(a), inf, dtype=np.min_scalar_type(inf))
    table, lengths, masks = words
    n_graphemes = len(alphabet.graphemes)
    width = table.shape[1]
    indel = alphabet.indel_cost
    # No alignment strays further than ``width`` from the main diagonal.
    half = min(bound // indel, width)
    la, lb = lengths[a], lengths[b]
    todo = np.flatnonzero(within_lower_bounds(la, lb, masks[a], masks[b], bound, indel))
    todo = todo[np.argsort(la[todo])]
    # Word ids run down the columns, so a chunk's rows come out contiguous;
    # ``half`` padding rows above the second word cover diagonals left of j=1.
    dtype = np.min_scalar_type((n_graphemes + 1) ** 2 - 1)
    a_rows = table.T.astype(dtype)
    a_rows *= n_graphemes + 1
    b_rows = np.full((width + 2 * half, len(table)), n_graphemes, dtype=dtype)
    b_rows[half : half + width] = table.T
    costs = _substitution_costs(alphabet, inf)
    ends = np.cumsum(np.bincount(la[todo]))
    start = 0
    for length, end in enumerate(ends.tolist()):
        for lo in range(start, end, _CHUNK):
            pairs = todo[lo : min(lo + _CHUNK, end)]
            out[pairs] = _band_walk(
                a_rows[:length, a[pairs]], b_rows[:, b[pairs]],
                lb[pairs] - length + half, costs, half, indel, inf,
            )
        start = end
    return out


def _substitution_costs(alphabet: Alphabet, inf: int) -> np.ndarray:
    """Flat (G+1)x(G+1) substitution costs; the padding id G costs ``inf``."""
    import numpy as np

    n = len(alphabet.graphemes)
    # The narrowest signed type that holds a capped cell plus one more edit.
    dtype = np.min_scalar_type(-(2 * inf + 2 * alphabet.indel_cost))
    costs = np.full(
        (n + 1, n + 1), alphabet.dissimilar_substitution_cost, dtype=dtype
    )
    for x, y in alphabet.similar_id_pairs:
        costs[x, y] = costs[y, x] = alphabet.similar_substitution_cost
    np.fill_diagonal(costs, 0)
    costs[n, :] = costs[:, n] = inf
    return costs.ravel()


def _band_walk(a_rows, b_rows, final_diagonal, costs, half, indel, inf):
    """Banded DP for a chunk of pairs whose first words share one length.

    ``band[k, p]`` holds D[i][i + k - half] for pair ``p`` at row ``i``,
    capped at ``inf``. Cells right of the second word's end are not masked:
    paths only move right and down, so they never reach the cell read at the
    end, and they can only lower a row minimum, which keeps the cut-off sound.
    """
    import numpy as np

    diagonals = 2 * half + 1
    n = a_rows.shape[1]
    band = np.full((diagonals, n), inf, dtype=costs.dtype)
    band[half:] = (np.arange(half + 1) * indel)[:, None]
    for i in range(1, len(a_rows) + 1):
        prev = band
        band = prev + costs[a_rows[i - 1] + b_rows[i - 1 : i - 1 + diagonals]]
        np.minimum(band[:-1], prev[1:] + indel, out=band[:-1])
        for k in range(1, diagonals):
            np.minimum(band[k], band[k - 1] + indel, out=band[k])
        np.minimum(band, inf, out=band)
        if band.min() >= inf:
            return inf
    return band[final_diagonal, np.arange(n)]


def edit_distance(
    a: Sequence[str] | str,
    b: Sequence[str] | str,
    alphabet: Alphabet,
    bound: int | None = None,
) -> int | None:
    """Minimum total edit cost between two grapheme sequences.

    Arguments may be grapheme sequences or raw strings; raw strings are
    segmented against the alphabet first. With ``bound`` set, the value is
    exact whenever the true distance is at most ``bound`` and ``None``
    (meaning "exceeds the bound") otherwise.
    """
    if isinstance(a, str):
        a = alphabet.segment(a)
    if isinstance(b, str):
        b = alphabet.segment(b)
    ea = alphabet.encode(a)
    eb = alphabet.encode(b)
    exhaustive = bound is None
    if exhaustive:
        bound = (len(ea) + len(eb)) * alphabet.indel_cost
    result = bounded_distance_ids(ea, eb, bound, alphabet)
    assert not (exhaustive and result is None)
    return result
