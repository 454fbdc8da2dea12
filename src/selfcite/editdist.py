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
numpy over a whole batch of word pairs, which :func:`edit_distance` calls
with a batch of one. It reads the words from a :func:`word_arrays` store,
the ids end to end in one flat array, which the co-occurrence grids build
once for their prefilter and for every distinct window pair of this batch;
each chunk takes its rows by clipped reads, in a band no wider than the
bound or the chunk's longest word.
Its reference is the scalar banded DP ``oracle_bounded_distance`` in
``tests/helpers.py``.

The records that check their fields (:class:`Alphabet` here, ``Locus`` and
``Token`` in ``corpus``, ``GridSpec`` in ``cooccur`` and ``GeneratorParams``
in ``generator``) share one base, :class:`CheckedRecord`: each defines only
its ``_checked`` method, which the constructor, ``_make`` and ``_replace``
all call.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
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


class CheckedRecord:
    """Base of the named-tuple records that check their fields, listed first:
    ``class Locus(CheckedRecord, _LocusFields)``. The constructor, ``_make``
    and ``_replace`` (which ``copy.replace`` calls as ``__replace__``) return
    the record's ``_checked()``: the record itself, or one built with
    ``tuple.__new__`` from its normalized fields. ``_checked`` raises
    ValueError on a bad field, and ``_replace`` on an unknown field name, on
    every Python version (namedtuple's own raises TypeError from 3.13)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    @classmethod
    def _make(cls, iterable):
        return super()._make(iterable)._checked()

    def _replace(self, /, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record

    __replace__ = _replace


class _GraphemeIds(dict):
    """grapheme -> inventory id, where a missing grapheme raises ValueError."""

    def __missing__(self, grapheme):
        raise ValueError(f"unknown grapheme {grapheme!r}")


class _AlphabetFields(NamedTuple):
    graphemes: tuple[str, ...]
    similarity_groups: tuple[frozenset[str], ...] = ()
    similar_substitution_cost: int = 1
    dissimilar_substitution_cost: int = 2
    indel_cost: int = 1


class Alphabet(CheckedRecord, _AlphabetFields):
    """Grapheme inventory, similarity classes, and edit costs."""

    def _checked(self):
        self = tuple.__new__(type(self), (
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

    @classmethod
    def single_characters(cls, chars: Iterable[str]) -> "Alphabet":
        """Alphabet of single characters with unit costs.

        This is the profile used for plain-language comparison corpora,
        where one changed letter counts as one edit.
        """
        return cls(graphemes=tuple(sorted(set(chars))), dissimilar_substitution_cost=1)

    # -- derived lookup structures (cached, not part of equality) --

    @cached_property
    def grapheme_ids(self) -> dict[str, int]:
        """Each grapheme's inventory id; looking up any other raises ValueError."""
        return _GraphemeIds(zip(self.graphemes, range(len(self.graphemes))))

    @cached_property
    def _grapheme_re(self) -> re.Pattern:
        # Longest first: an alternation takes its first branch that matches,
        # so "ch" beats "c" wherever both do.
        longest = sorted(self.graphemes, key=len, reverse=True)
        return re.compile("|".join(map(re.escape, longest)))

    @cached_property
    def similar_partners(self) -> dict[str, tuple[str, ...]]:
        """For each grapheme, the distinct similar graphemes, sorted."""
        partners: dict[str, set[str]] = {g: set() for g in self.graphemes}
        for group in self.similarity_groups:
            for g in group:
                partners[g].update(group - {g})
        return {g: tuple(sorted(p)) for g, p in partners.items()}

    def __contains__(self, grapheme: str) -> bool:
        return grapheme in self.grapheme_ids

    def encode(self, graphemes: Iterable[str]) -> tuple[int, ...]:
        """Map a grapheme sequence to inventory ids, validating membership."""
        return tuple(map(self.grapheme_ids.__getitem__, graphemes))

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
    alphabet.encode((a, b))  # raises on a grapheme outside the inventory
    return a == b or b in alphabet.similar_partners[a]


def bounded_distance_ids(
    a: tuple[int, ...], b: tuple[int, ...], bound: int, alphabet: Alphabet
) -> int | None:
    """Distance between two id sequences if it is at most ``bound``, else None.

    A batch of one through :func:`bounded_distances`, after stripping the
    common prefix and suffix, which metric costs never change.
    """
    import numpy as np

    start = common_prefix(a, b)
    a, b = a[start:], b[start:]
    end = common_prefix(a[::-1], b[::-1])
    a, b = a[: len(a) - end], b[: len(b) - end]
    first, second = np.arange(2).reshape(2, 1)
    words = word_arrays((len(a), len(b)), a + b, alphabet)
    value = int(bounded_distances(words, first, second, bound, alphabet)[0])
    return value if value <= bound else None


def common_prefix(x: Sequence, y: Sequence) -> int:
    """The length of the longest common prefix of ``x`` and ``y``."""
    for k, (p, q) in enumerate(zip(x, y)):
        if p != q:
            return k
    return min(len(x), len(y))


def word_arrays(lengths: Sequence[int], ids: Iterable[int], alphabet: Alphabet):
    """(flat, lengths, masks, starts) of words given by their lengths and by
    their grapheme ids one word after another: ``flat`` holds the ids end to
    end in the kernel's row code dtype, the smallest unsigned one that holds
    ``G * G - 1`` (uint16 up to 256 graphemes); ``starts`` holds each word's
    offset, int32 while the kernel's reads, within ``3 * len(flat)``, fit;
    ``lengths`` is int32; ``masks`` is uint32, bit ``g % 32`` per grapheme ``g``."""
    import numpy as np

    lengths = np.fromiter(lengths, dtype=np.int32, count=len(lengths))
    total = int(lengths.sum())
    flat = np.fromiter(ids, np.min_scalar_type(len(alphabet.graphemes) ** 2 - 1), count=total)
    starts = np.cumsum(lengths, dtype=np.min_scalar_type(-3 * total)) - lengths
    masks = np.zeros(len(lengths), dtype=np.uint32)
    filled = lengths > 0  # an empty word's run would take its neighbour's first id
    bits = np.left_shift(1, flat % 32, dtype=np.uint32)
    masks[filled] = np.bitwise_or.reduceat(bits, starts[filled])
    return flat, lengths, masks, starts


def within_lower_bounds(lengths_a, lengths_b, masks_a, masks_b, bound: int, indel: int):
    """False where the length or the grapheme-mask lower bound puts the words
    of lengths ``lengths_a[p]``, ``lengths_b[p]`` and :func:`word_arrays`
    masks ``masks_a[p]``, ``masks_b[p]`` beyond ``bound``.

    Each grapheme of length difference costs an indel, and a grapheme present
    in one word only costs at least half an edit, so ``popcount(xor)`` of the
    masks may not exceed ``2 * bound``; folding ids mod 32 only merges bits.
    """
    import numpy as np

    return (np.abs(lengths_a - lengths_b) <= bound // indel) & (
        np.bitwise_count(masks_a ^ masks_b) <= 2 * bound
    )


# Pairs walked together by the batched DP: enough to amortize numpy's
# per-call overhead over a row, few enough that a chunk's band stays in cache.
_CHUNK = 8192
# Pairs filtered, sorted and walked as one slice of a batch, so the batch's
# transient arrays stay one slice long however many pairs it holds.
_SLICE = 4 * _CHUNK


def bounded_distances(
    words: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    bound: int,
    alphabet: Alphabet,
) -> np.ndarray:
    """Weighted distances of many word pairs, exact up to ``bound``.

    Pair ``p`` is words ``a[p]`` and ``b[p]`` of ``words``, the
    ``(flat, lengths, masks, starts)`` that :func:`word_arrays` builds from ids
    as returned by :meth:`Alphabet.encode`. The result holds each
    pair's distance when it is at most ``bound`` and ``bound + 1`` otherwise,
    in the smallest unsigned dtype that fits ``bound + 1``.

    The pairs go in fixed slices of ``_SLICE``, each written through a view
    of the result, so beside the result the memory a batch takes is that of
    one slice, however many pairs it holds. In a slice, the lower bounds of
    :func:`within_lower_bounds` settle most pairs without a DP. The rest run
    a banded DP, grouped by the length of the first word so that each chunk
    of up to ``_CHUNK`` pairs walks its rows together, and a chunk stops once
    every pair's row minimum exceeds the bound (Ukkonen's cut-off). The
    scalar ``oracle_bounded_distance`` in ``tests/helpers.py`` is its test
    reference.

    A chunk's band spans ``2 * half + 1`` diagonals, ``half`` being
    ``bound // indel`` or the chunk's longest word if shorter. Its rows come
    from ``flat`` by clipped reads: the first words' ids times ``G``, and the
    second words' ids from ``half`` before their start to ``half`` past the
    first words' length, into their neighbours (see :func:`_band_walk`). A
    band row reads its costs from a flat ``G x G`` table at their sum.
    """
    import numpy as np

    inf = bound + 1
    out = np.full(len(a), inf, dtype=np.min_scalar_type(inf))
    flat, lengths, masks, starts = words
    indel = alphabet.indel_cost
    # The narrowest signed type that holds a capped cell plus one edit, up to ``inf + 2 * indel``.
    costs = _substitution_costs(alphabet, np.min_scalar_type(-(inf + 2 * indel) - 1))
    for first in range(0, len(a), _SLICE):
        part = slice(first, first + _SLICE)
        sa, sb, codes = a[part], b[part], out[part]
        la, lb = lengths[sa], lengths[sb]
        todo = np.flatnonzero(within_lower_bounds(la, lb, masks[sa], masks[sb], bound, indel))
        todo = todo[np.argsort(la[todo])]
        ends = np.cumsum(np.bincount(la[todo]))
        start = 0
        for length, end in enumerate(ends.tolist()):
            for lo in range(start, end, _CHUNK):
                pairs = todo[lo : min(lo + _CHUNK, end)]
                # No alignment strays further than the longer word from the main diagonal.
                half = min(bound // indel, max(length, int(lb[pairs].max())))
                a_rows = _rows(flat, starts[sa[pairs]], length)
                a_rows *= len(alphabet.graphemes)
                b_rows = _rows(flat, starts[sb[pairs]] - half, length + 2 * half)
                codes[pairs] = _band_walk(a_rows, b_rows, lb[pairs] - length + half,
                                          costs, half, indel, inf)
            start = end
    return out


def _rows(flat, first, n_rows):
    """Row ``r`` holds ``flat[first + r]``, clipped; no 2-D index is built."""
    import numpy as np

    rows = np.empty((n_rows, len(first)), dtype=flat.dtype)
    for r, row in enumerate(rows):
        flat.take(first + r, out=row, mode="clip")
    return rows


@lru_cache(maxsize=32)
def _substitution_costs(alphabet: Alphabet, dtype: np.dtype) -> np.ndarray:
    """Flat GxG substitution costs in ``dtype``, the DP's cell type. Read-only
    and cached per alphabet and dtype: every kernel call reads it."""
    import numpy as np

    n = len(alphabet.graphemes)
    costs = np.full((n, n), alphabet.dissimilar_substitution_cost, dtype=dtype)
    for group in alphabet.similarity_groups:
        ids = alphabet.encode(group)
        for x in ids:
            for y in ids:
                costs[x, y] = alphabet.similar_substitution_cost
    np.fill_diagonal(costs, 0)
    costs.flags.writeable = False
    return costs.ravel()


def _band_walk(a_rows, b_rows, final_diagonal, costs, half, indel, inf):
    """Banded DP for a chunk of pairs whose first words share one length.

    ``band[k, p]`` holds D[i][i + k - half] for pair ``p`` at row ``i``,
    capped at ``inf``. ``b_rows`` runs past each second word into its
    neighbours in the store, unmasked. A cell left of column 0 reads only
    cells at or left of its column, all ``inf`` from row 0 on. A cell right of
    the word's end never reaches the cell read at the end, as paths only move
    right and down, and can only lower a row minimum: the cut-off stays sound.
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
