"""Windowed positional co-occurrence grids.

For every token at line n, position m, the engine inspects the candidate
positions {n-i, m+j} over a window of previous lines (plus the earlier part
of the same line) and counts how often the candidate word sits at exactly
the requested edit distance from the token being "written". Cells on row n
at or right of the writing position are excluded: only previously written
words are compared.

Counts are exact integers per cell; proportions are rational values formed
at render time. Word types are not counted here: the ids and words come
from the corpus's type table, :attr:`selfcite.corpus.Corpus.types`. The
corpus becomes one padded type-id matrix, in which padding and, with
``drop_line_edges``, each line's first and last word are blank (-1) cells,
and one :func:`selfcite.editdist.word_arrays` table of its types serves
both the prefilter and the distance kernel. Grids for several
target distances are computed in a single pass, bounded by the largest
distance:

1. Each cell counts its pair instances, and those of a type with itself as
   distance-0 matches, before any sort.
2. It keeps the other instances that the lower bounds of
   :func:`selfcite.editdist.within_lower_bounds` do not rule out, and reduces
   their sorted canonical type-pair keys to distinct keys with a count each,
   so memory follows distinct pairs per cell, not pair instances.
3. One :func:`selfcite.editdist.bounded_distances` batch codes the window's
   distinct kept pairs.
4. Each cell looks its keys up among the pairs within the bound only and
   tallies their counts per distance with one ``bincount``.

numpy is imported inside the functions that use it, so importing this module
(as the CLI does for every command) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from selfcite.corpus import Corpus, csv_bytes
from selfcite.editdist import Alphabet, bounded_distances, within_lower_bounds, word_arrays
# Re-exported: bench/spans.py wraps this name here, and its traced run fails
# without it. cooccur never calls it, so the traced
# ``editdist.bounded_distance_ids.calls`` reads 0.
from selfcite.editdist import bounded_distance_ids  # noqa: F401


@dataclass(frozen=True)
class GridSpec:
    """Window shape of a co-occurrence grid and the alphabet whose costs
    measure distance."""

    alphabet: Alphabet
    max_line_offset: int = 9
    max_pos_offset: int = 6
    drop_line_edges: bool = False

    def __post_init__(self):
        if self.max_line_offset < 1:
            raise ValueError("max_line_offset must be >= 1")
        if self.max_pos_offset < 1:
            raise ValueError("max_pos_offset must be >= 1")

    def iter_cells(self) -> Iterator[tuple[int, int]]:
        """All (line_offset, pos_offset) cells; row 0 keeps only j < 0."""
        for i in range(self.max_line_offset + 1):
            for j in range(-self.max_pos_offset, self.max_pos_offset + 1):
                if i == 0 and j >= 0:
                    continue
                yield (i, j)


@dataclass
class GridCell:
    pair_count: int = 0
    match_count: int = 0

    @property
    def proportion(self) -> float | None:
        """match/pair as a float, or None when no pair was observed."""
        if self.pair_count == 0:
            return None
        return self.match_count / self.pair_count


@dataclass(frozen=True)
class CooccurrenceGrid:
    spec: GridSpec
    cells: dict[tuple[int, int], GridCell]

    def proportion(self, line_offset: int, pos_offset: int) -> float | None:
        return self.cells[(line_offset, pos_offset)].proportion

    def row_mean(self, line_offset: int) -> float | None:
        """Unweighted mean of the defined cell proportions in one row."""
        values = [c.proportion for (i, _), c in self.cells.items()
                  if i == line_offset and c.pair_count > 0]
        if not values:
            return None
        return sum(values) / len(values)


def _corpus_matrices(corpus: Corpus, spec: GridSpec):
    """The type-id matrix of the corpus, with -1 in blank cells, and the
    :func:`word_arrays` table of its types. Ids and words come from the
    corpus's type table: a type's id is its position there."""
    import numpy as np

    table = corpus.types
    words = [spec.alphabet.encode(graphemes) for graphemes in table.segmentations()]
    type_id = dict(zip(table.entries, range(len(words))))
    lengths = np.array([len(line.tokens) for line in corpus.lines])
    ids = [type_id[token.raw] for line in corpus.lines for token in line.tokens]
    matrix = np.full((len(lengths), lengths.max()), -1, dtype=np.int64)
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = ids
    if spec.drop_line_edges:
        rows = np.flatnonzero(lengths)
        matrix[rows, 0] = matrix[rows, lengths[rows] - 1] = -1
    return matrix, word_arrays(words, spec.alphabet)


def _cell_pairs(matrix, i: int, j: int):
    """(target, candidate) type ids of one window cell's pair instances."""
    import numpy as np

    height, width = matrix.shape
    if i >= height or abs(j) >= width:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # target columns [lo, hi) pair with candidate columns [lo + j, hi + j)
    lo, hi = max(0, -j), width - max(0, j)
    target = matrix[i:, lo:hi]
    cand = matrix[: height - i, lo + j : hi + j]
    valid = (target >= 0) & (cand >= 0)
    return target[valid], cand[valid]


def _distinct(keys):
    """Sorted distinct keys and how often each occurs; sorts ``keys`` in place."""
    import numpy as np

    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=len(keys)).astype(np.int32)
    return keys[starts], counts


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

    if not corpus.lines:
        raise ValueError("corpus has no lines")
    if not distances:
        raise ValueError("need at least one target distance")
    if min(distances) < 0:
        raise ValueError("target distances must be >= 0")
    matrix, words = _corpus_matrices(corpus, spec)
    n_types = max(len(words[0]), 1)
    bound = max(distances)
    indel = spec.alphabet.indel_cost
    cells = list(spec.iter_cells())
    per_cell = []
    for i, j in cells:
        a, b = _cell_pairs(matrix, i, j)
        same = a == b
        keep = ~same & within_lower_bounds(words, a, b, bound, indel)
        a, b = a[keep], b[keep]
        keys, counts = _distinct(np.minimum(a, b) * n_types + np.maximum(a, b))
        per_cell.append((len(same), int(same.sum()), keys, counts))
    all_keys, _ = _distinct(np.concatenate([keys for _, _, keys, _ in per_cell]))
    lo, hi = np.divmod(all_keys, n_types)
    codes = bounded_distances(words, lo, hi, bound, spec.alphabet)
    near = codes <= bound
    # A sentinel above every key takes the keys beyond the bound.
    near_keys = np.append(all_keys[near], n_types * n_types)
    near_codes = np.append(codes[near], bound + 1)
    grids = {d: {} for d in distances}
    for cell, (pair_count, same_count, keys, counts) in zip(cells, per_cell):
        at = np.searchsorted(near_keys, keys)
        at[near_keys[at] != keys] = -1
        tally = np.bincount(near_codes[at], weights=counts, minlength=bound + 2)
        tally[0] += same_count  # plus any two raw words with equal graphemes
        for d in distances:
            grids[d][cell] = GridCell(pair_count, int(tally[d]))
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
            if i == 0 and j == 0:
                row.append("x")
            elif (i, j) not in grid.cells:
                row.append("")
            else:
                cell = grid.cells[(i, j)]
                row.append(
                    format_percent(cell.match_count, cell.pair_count)
                    if cell.pair_count
                    else ""
                )
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
            if i == 0 and j == 0:
                fill = "url(#hatch)"
                title = "writing position"
            elif (i, j) not in grid.cells or not grid.cells[(i, j)].pair_count:
                fill = "white"
                title = ""
            else:
                cell = grid.cells[(i, j)]
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
