"""Windowed positional co-occurrence grids.

For every token at line n, position m, the engine inspects the candidate
positions {n-i, m+j} over a window of previous lines (plus the earlier part
of the same line) and counts how often the candidate word sits at exactly
the requested edit distance from the token being "written". Cells on row n
at or right of the writing position are excluded: only previously written
words are compared.

Counts are exact integers per cell; proportions are rational values formed
at render time. Grids for several target distances are computed in a single
pass, bounded by the largest distance:

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

import csv
import io
from dataclasses import dataclass
from typing import Iterator, Sequence

from selfcite.corpus import Corpus, require_graphemes
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


def _corpus_matrices(corpus: Corpus, alphabet: Alphabet):
    """Pad the corpus into (type-id matrix, edge mask, id sequences)."""
    import numpy as np

    type_ids: dict[tuple[str, ...], int] = {}
    rows: list[list[int]] = []
    for line in corpus.lines:
        rows.append([
            type_ids.setdefault(require_graphemes(token), len(type_ids))
            for token in line.tokens
        ])
    width = max(len(r) for r in rows)
    height = len(rows)
    matrix = np.full((height, width), -1, dtype=np.int64)
    edges = np.zeros((height, width), dtype=bool)
    for n, row in enumerate(rows):
        if row:
            matrix[n, : len(row)] = row
            edges[n, 0] = True
            edges[n, len(row) - 1] = True
    return matrix, edges, [alphabet.encode(graphemes) for graphemes in type_ids]


def _cell_pairs(matrix, edges, i: int, j: int, drop_edges: bool):
    """(target, candidate) type ids of one window cell's pair instances."""
    import numpy as np

    height, width = matrix.shape
    if i >= height or abs(j) >= width:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # target columns [lo, hi) pair with candidate columns [lo + j, hi + j)
    lo, hi = max(0, -j), width - max(0, j)
    target = matrix[i:, lo:hi]
    cand = matrix[: height - i, lo + j : hi + j]
    target_edge = edges[i:, lo:hi]
    cand_edge = edges[: height - i, lo + j : hi + j]
    valid = (target >= 0) & (cand >= 0)
    if drop_edges:
        valid &= ~target_edge & ~cand_edge
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
    matrix, edges, seqs = _corpus_matrices(corpus, spec.alphabet)
    n_types = max(len(seqs), 1)
    bound = max(distances)
    _, lengths, masks = word_arrays(seqs, spec.alphabet)
    indel = spec.alphabet.indel_cost
    cells = list(spec.iter_cells())
    per_cell = []
    for i, j in cells:
        a, b = _cell_pairs(matrix, edges, i, j, spec.drop_line_edges)
        same = a == b
        keep = ~same & within_lower_bounds(lengths, masks, a, b, bound, indel)
        a, b = a[keep], b[keep]
        keys, counts = _distinct(np.minimum(a, b) * n_types + np.maximum(a, b))
        per_cell.append((len(same), int(same.sum()), keys, counts))
    all_keys, _ = _distinct(np.concatenate([keys for _, _, keys, _ in per_cell]))
    lo, hi = np.divmod(all_keys, n_types)
    codes = bounded_distances(seqs, lo, hi, bound, spec.alphabet)
    near = codes <= bound
    # A sentinel above every key takes the keys beyond the bound.
    near_keys = np.append(all_keys[near], n_types * n_types)
    near_codes = np.append(codes[near], bound + 1)
    grids = {d: {} for d in distances}
    for cell, (pair_count, same_count, keys, counts) in zip(cells, per_cell):
        at = np.searchsorted(near_keys, keys)
        at[near_keys[at] != keys] = -1
        tally = np.bincount(near_codes[at], weights=counts, minlength=bound + 2)
        tally[0] = same_count
        for d in distances:
            grids[d][cell] = GridCell(pair_count, int(tally[d]))
    return {d: CooccurrenceGrid(spec, grids[d]) for d in distances}


def compute_grid(corpus: Corpus, spec: GridSpec, distance: int = 0) -> CooccurrenceGrid:
    """The co-occurrence grid of words at exactly ``distance``."""
    return compute_grids(corpus, spec, [distance])[distance]


def summarize_decay(grid: CooccurrenceGrid) -> dict[int, float]:
    """Mean proportion per line-offset row, excluding row 0.

    Input must have data in at least four rows; the result supports the
    check that proportions fall off with line distance.
    """
    means = {}
    for i in range(1, grid.spec.max_line_offset + 1):
        mean = grid.row_mean(i)
        if mean is not None:
            means[i] = mean
    if len(means) < 4:
        raise ValueError("grid needs data in at least 4 rows to summarize decay")
    return means


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def format_percent(match_count: int, pair_count: int) -> str:
    """match/pair as a percentage, two decimals, exact half-up rounding."""
    hundredths = (20_000 * match_count + pair_count) // (2 * pair_count)
    return f"{hundredths // 100}.{hundredths % 100:02d}"


def _column_labels(spec: GridSpec) -> list[str]:
    labels = []
    for j in range(-spec.max_pos_offset, spec.max_pos_offset + 1):
        labels.append("m" if j == 0 else f"m{j:+d}")
    return labels


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


def _render_csv(grid: CooccurrenceGrid) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + _column_labels(grid.spec))
    writer.writerows(_table_rows(grid))
    return buf.getvalue().encode("utf-8")


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
        return _render_csv(grid)
    if format == "markdown":
        return _render_markdown(grid)
    if format == "svg":
        return _render_svg(grid)
    raise ValueError(f"unknown grid format {format!r}")
