"""Windowed positional co-occurrence grids.

For every token at line n, position m, the engine inspects the candidate
positions {n-i, m+j} over a window of previous lines (plus the earlier part
of the same line) and counts how often the candidate word sits at exactly
the requested edit distance from the token being "written". Cells on row n
at or right of the writing position are excluded: only previously written
words are compared.

Counts are exact integers per cell; proportions are rational values formed
at render time. Type ids come from the corpus's id stream,
:attr:`selfcite.corpus.Corpus.ids`, and one
:func:`selfcite.editdist.word_arrays` flat store of its types' graphemes
serves both the prefilter and the distance kernel. Grids for several target
distances are computed in one pass, bounded by the largest distance:

1. The cells are those the data reaches: rows up to the last line and
   offsets ``|j|`` up to ``reach``, the smaller of ``max_pos_offset`` and
   one less than the longest line's length. The corpus's id stream becomes
   one flat array, each line padded with ``reach`` blank (-1) cells. Window
   cell (i, j) is one shift ``s = i * width - j``: targets ``flat[s:]`` meet
   candidates ``flat[:-s]``, and a candidate off its line lands in padding.
2. On these slices each cell counts its pair instances and, as distance-0
   matches, those of a type with itself. It gathers the others that the
   lower bounds of :func:`selfcite.editdist.within_lower_bounds`, read per
   position, do not rule out, and reduces their canonical type-pair keys to
   distinct keys with a count each, so memory follows distinct pairs.
3. The cells' keys, sorted together, give the window's distinct kept pairs,
   and one :func:`selfcite.editdist.bounded_distances` batch codes them. The
   batch filters, sorts and walks them in fixed slices, each chunk with
   clipped reads of the flat store in a band no wider than the bound or its
   longest word, so beside the codes its memory is one slice's at most.
4. Each cell looks its keys up among those distinct pairs and sums their
   counts at each requested distance, so memory follows the data, not the
   bound or the window.

numpy is imported inside the functions that use it, so importing this module
(as the CLI does for every command) does not load it.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Sequence

from selfcite.corpus import Corpus, csv_bytes
from selfcite.editdist import (
    Alphabet,
    CheckedRecord,
    bounded_distances,
    within_lower_bounds,
    word_arrays,
)
# Re-exported: bench/spans.py wraps this name here, and its traced run fails
# without it. cooccur never calls it, so the traced
# ``editdist.bounded_distance_ids.calls`` reads 0.
from selfcite.editdist import bounded_distance_ids  # noqa: F401

# The largest window offset a grid takes (``--rows``, ``--cols``, a profile's
# ``grid_pos_offset`` and a library ``GridSpec``): a rendered table holds one
# entry per window cell, and a 1000 x 2001 SVG takes about 3 s.
MAX_OFFSET = 1000


class _GridSpecFields(NamedTuple):
    alphabet: Alphabet
    max_line_offset: int = 9
    max_pos_offset: int = 6
    drop_line_edges: bool = False


class GridSpec(CheckedRecord, _GridSpecFields):
    """Window shape of a co-occurrence grid and the alphabet whose costs
    measure distance. Each offset is at least 1 and at most :data:`MAX_OFFSET`."""

    __slots__ = ()

    def _checked(self):
        for name in ("max_line_offset", "max_pos_offset"):
            value = getattr(self, name)
            if not 1 <= value <= MAX_OFFSET:
                raise ValueError(f"{name} must be >= 1 and <= {MAX_OFFSET}, got {value}")
        return self


class GridCell(NamedTuple):
    pair_count: int = 0
    match_count: int = 0

    @property
    def proportion(self) -> float | None:
        """match/pair as a float, or None when no pair was observed."""
        if self.pair_count == 0:
            return None
        return self.match_count / self.pair_count


class CooccurrenceGrid(NamedTuple):
    """Per-cell counts of a window. ``cells`` holds only the cells the data
    reaches (on row 0, left of the writing position); an absent cell has no pairs."""

    spec: GridSpec
    cells: dict[tuple[int, int], GridCell]

    def proportion(self, line_offset: int, pos_offset: int) -> float | None:
        return self.cells.get((line_offset, pos_offset), GridCell()).proportion

    def row_mean(self, line_offset: int) -> float | None:
        """Unweighted mean of the defined cell proportions in one row."""
        values = [c.proportion for (i, _), c in self.cells.items()
                  if i == line_offset and c.pair_count > 0]
        if not values:
            return None
        return sum(values) / len(values)


def _run_starts(keys):
    """Sorts ``keys`` in place; True at the first key of each run of equals."""
    import numpy as np

    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _distinct(keys):
    """Sorted distinct keys and how often each occurs; sorts ``keys`` in place."""
    import numpy as np

    starts = np.flatnonzero(_run_starts(keys))
    counts = np.diff(starts, append=len(keys)).astype(np.int32)
    return keys[starts], counts


def _key_dtype(n_types: int):
    """The smallest signed dtype that holds every canonical pair key
    ``lo * n_types + hi``."""
    import numpy as np

    return np.min_scalar_type(-n_types * n_types)


def _cell_keys(corpus: Corpus, spec: GridSpec, bound: int):
    """The :func:`word_arrays` store of the corpus's types, in id order, and
    per window cell that the data reaches: its pair instances, its
    distance-0 matches, and the distinct keys of its other instances within
    the lower bounds, with a count each."""
    import numpy as np

    segmentations = corpus.segmentations()
    ids = map(spec.alphabet.grapheme_ids.__getitem__, chain.from_iterable(segmentations))
    words = word_arrays(list(map(len, segmentations)), ids, spec.alphabet)
    _, type_lengths, type_masks, _ = words
    n_types = max(len(segmentations), 1)
    key_type = _key_dtype(n_types)
    line_lengths = np.diff(corpus.offsets)
    n_lines, widest = len(line_lengths), int(line_lengths.max())
    # A shift past the last line or the widest line pairs nothing, so the
    # cells stop there and no shift needs more padding than ``reach``.
    rows = min(spec.max_line_offset, n_lines - 1)
    reach = max(min(spec.max_pos_offset, widest - 1), 0)
    width = widest + reach or 1
    matrix = np.full((n_lines, width), -1, dtype=np.int32)
    matrix[np.arange(width) < line_lengths[:, None]] = np.frombuffer(corpus.ids, np.intc)
    if spec.drop_line_edges:  # column -1 of a token-less line is padding
        matrix[:, 0] = matrix[np.arange(n_lines), line_lengths - 1] = -1
    flat = matrix.ravel()
    indel = spec.alphabet.indel_cost
    filled = flat >= 0
    # Per position, narrowed to halve each cell's reads: a clip never widens a
    # length gap, a 32-bit xor-fold never raises a mask xor's popcount. A
    # blank (-1) reads the zero appended last, and ``pairs`` drops it.
    lengths = np.append(np.minimum(type_lengths, 2**15 - 1), 0).astype(np.int16)[flat]
    folded = np.append(type_masks ^ type_masks >> 32, np.uint64(0))
    masks = folded.astype(np.uint32)[flat]
    per_cell = {}
    for i in range(rows + 1):
        for j in range(-reach, reach + 1 if i else 0):  # row 0: only j < 0
            s = i * width - j
            target, cand = slice(s, None), slice(len(flat) - s)
            a, b = flat[target], flat[cand]
            pairs = filled[target] & filled[cand]
            equal = a == b
            kept = np.flatnonzero(pairs & ~equal & within_lower_bounds(
                lengths[target], lengths[cand], masks[target], masks[cand], bound, indel,
            ))
            a, b = a[kept].astype(key_type), b[kept].astype(key_type)
            keys, counts = _distinct(np.minimum(a, b) * n_types + np.maximum(a, b))
            per_cell[(i, j)] = (int(np.count_nonzero(pairs)),
                                int(np.count_nonzero(pairs & equal)), keys, counts)
    return words, per_cell


def compute_grids(
    corpus: Corpus,
    spec: GridSpec,
    distances: Sequence[int],
) -> dict[int, CooccurrenceGrid]:
    """Grids for several target distances in one pass over a normalized corpus.

    Cell counts equal those of independent single-distance runs; computing
    them together only shares the pair enumeration and distance work.
    """
    import numpy as np

    if not corpus.loci:
        raise ValueError("corpus has no lines")
    if not distances:
        raise ValueError("need at least one target distance")
    if min(distances) < 0:
        raise ValueError("target distances must be >= 0")
    bound = max(distances)
    words, per_cell = _cell_keys(corpus, spec, bound)
    n_types = max(len(words[1]), 1)
    empty = np.empty(0, _key_dtype(n_types))  # a corpus may reach no cell
    all_keys = np.concatenate([empty, *(keys for _, _, keys, _ in per_cell.values())])
    all_keys = all_keys[_run_starts(all_keys)]
    lo, hi = np.divmod(all_keys, n_types)
    codes = bounded_distances(words, lo, hi, bound, spec.alphabet)
    grids = {d: {} for d in distances}
    for cell, (pair_count, same_count, keys, counts) in per_cell.items():
        found = codes[np.searchsorted(all_keys, keys)]  # every key is in all_keys
        for d in distances:  # plus, at 0, any two raw words with equal graphemes
            matches = int(counts[found == d].sum()) + (same_count if d == 0 else 0)
            grids[d][cell] = GridCell(pair_count, matches)
    return {d: CooccurrenceGrid(spec, grids[d]) for d in distances}


def compute_grid(corpus: Corpus, spec: GridSpec, distance: int = 0) -> CooccurrenceGrid:
    """The co-occurrence grid of words at exactly ``distance``."""
    return compute_grids(corpus, spec, [distance])[distance]


def summarize_decay(grid: CooccurrenceGrid) -> tuple[dict[int, float], bool]:
    """Mean proportion of each line-offset row with data, row 0 excluded, and
    whether rows n-1..n-3 average above rows n-7..n-9 (False when either
    group has no data)."""
    rows = range(1, grid.spec.max_line_offset + 1)
    means = {i: mean for i in rows if (mean := grid.row_mean(i)) is not None}
    near = [means[i] for i in (1, 2, 3) if i in means]
    far = [means[i] for i in (7, 8, 9) if i in means]
    decays = bool(near and far) and sum(near) / len(near) > sum(far) / len(far)
    return means, decays


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_percent(match_count: int, pair_count: int) -> str:
    """match/pair as a percentage, two decimals, exact half-up rounding."""
    hundredths = (20_000 * match_count + pair_count) // (2 * pair_count)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _column_labels(spec: GridSpec) -> list[str]:
    offsets = range(-spec.max_pos_offset, spec.max_pos_offset + 1)
    return ["m" if j == 0 else f"m{j:+d}" for j in offsets]


def _row_label(i: int) -> str:
    return "n" if i == 0 else f"n-{i}"


def _table_rows(grid: CooccurrenceGrid) -> list[list[str]]:
    spec = grid.spec
    rows = []
    for i in range(spec.max_line_offset, -1, -1):
        row = [_row_label(i)]
        for j in range(-spec.max_pos_offset, spec.max_pos_offset + 1):
            cell = grid.cells.get((i, j))
            if i == 0 and j == 0:
                row.append("x")
            elif cell is None or not cell.pair_count:
                row.append("")
            else:
                row.append(format_percent(cell.match_count, cell.pair_count))
        rows.append(row)
    return rows


def _render_markdown(grid: CooccurrenceGrid) -> bytes:
    header = [""] + _column_labels(grid.spec)
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    for row in _table_rows(grid):
        lines.append("| " + " | ".join(row) + " |")
    return ("\n".join(lines) + "\n").encode("utf-8")


_SVG_CELL_W = 46
_SVG_CELL_H = 22
_SVG_LEFT = 44
_SVG_TOP = 26


def _render_svg(grid: CooccurrenceGrid) -> bytes:
    spec = grid.spec
    cols = 2 * spec.max_pos_offset + 1
    rows = spec.max_line_offset + 1
    width = _SVG_LEFT + cols * _SVG_CELL_W + 8
    height = _SVG_TOP + rows * _SVG_CELL_H + 8
    proportions = [c.proportion for c in grid.cells.values() if c.pair_count]
    vmax = max(proportions) if proportions else 0.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        "<defs><pattern id=\"hatch\" width=\"6\" height=\"6\" "
        "patternUnits=\"userSpaceOnUse\">"
        "<path d=\"M0,6 L6,0\" stroke=\"#666\" stroke-width=\"1\"/></pattern></defs>",
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for c, label in enumerate(_column_labels(spec)):
        x = _SVG_LEFT + c * _SVG_CELL_W + _SVG_CELL_W // 2
        parts.append(
            f'<text x="{x}" y="{_SVG_TOP - 8}" font-size="10" '
            f'text-anchor="middle" font-family="monospace">{label}</text>'
        )
    for r, i in enumerate(range(spec.max_line_offset, -1, -1)):
        y = _SVG_TOP + r * _SVG_CELL_H
        parts.append(
            f'<text x="{_SVG_LEFT - 6}" y="{y + 15}" font-size="10" '
            f'text-anchor="end" font-family="monospace">{_row_label(i)}</text>'
        )
        for c, j in enumerate(range(-spec.max_pos_offset, spec.max_pos_offset + 1)):
            x = _SVG_LEFT + c * _SVG_CELL_W
            cell = grid.cells.get((i, j))
            if i == 0 and j == 0:
                fill = "url(#hatch)"
                title = "writing position"
            elif cell is None or not cell.pair_count:
                fill = "white"
                title = ""
            else:
                shade = 0.0 if vmax == 0 else cell.proportion / vmax
                # monochrome ramp, darker = higher proportion
                level = 255 - round(200 * shade)
                fill = f"rgb({level},{level},{level})"
                title = f"{format_percent(cell.match_count, cell.pair_count)}%"
            rect = (
                f'<rect x="{x}" y="{y}" width="{_SVG_CELL_W}" '
                f'height="{_SVG_CELL_H}" fill="{fill}" stroke="#999"/>'
            )
            if title:
                rect = rect[:-2] + f"><title>{title}</title></rect>"
            parts.append(rect)
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def render_grid(grid: CooccurrenceGrid, format: str) -> bytes:
    """Serialize a grid as "csv", "markdown", or "svg" bytes.

    Output is a pure function of the cell counts, so identical inputs give
    byte-identical bytes.
    """
    if format == "csv":
        return csv_bytes([[""] + _column_labels(grid.spec), *_table_rows(grid)])
    if format == "markdown":
        return _render_markdown(grid)
    if format == "svg":
        return _render_svg(grid)
    raise ValueError(f"unknown grid format {format!r}")
