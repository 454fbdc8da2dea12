"""Corpus ingestion: transliteration and plaintext parsing, normalization.

A :class:`Corpus` is held in columns: its word types (the distinct raw
words in order of first occurrence, a type's id being its position, each
with its graphemes once normalized), one id stream of all tokens cut into
lines by offsets, and each line's locus (page, text-unit, line number) and
paragraph id. Line order is source order; after any filtering the remaining
lines are adjacent, so a page's first line follows the previous page's last
retained line. Consumers read the columns, and no record per token is built
to parse, normalize or analyse a corpus: :attr:`Corpus.lines`, of
:class:`Line` and :class:`Token` records, is a view built on demand.

Transliteration format (documented subset)
------------------------------------------
Each content line is ``<page.unit.line[;transcriber]> glyphtext`` where
``.`` and ``,`` separate tokens, ``!`` and ``%`` are fillers (removed), and
lines starting with ``#`` are comments. A few common extras are tolerated:
``{...}`` spans are dropped, ``-`` acts as a separator, and a trailing
``=`` marks the end of a paragraph. Multi-transcriber interleaving and
inline alternates are out of scope.

Paragraph detection: a line starts a new paragraph when it is the first
retained line of its page, when a blank source line precedes it, when its
unit differs from the previous retained line's unit, or when the previous
line ended with ``=``. Lines dropped by the unit filter break paragraphs
the same way blank lines do.
"""

from __future__ import annotations

import csv
import io
import re
import string
import unicodedata
from array import array
from collections import Counter
from functools import cached_property
from itertools import accumulate, chain, compress, takewhile
from operator import ne
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): hashlib's
# loads OpenSSL's libcrypto, several MB of resident memory per process.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from selfcite.editdist import Alphabet, checked_make, checked_replace


class ParseError(ValueError):
    """Malformed input, reported with its 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyCorpusError(ValueError):
    """Too few tokens are left to analyse: none, or fewer than an analysis
    needs. The command line names the input file."""


class _LocusFields(NamedTuple):
    page: str
    unit: str
    line_no: int
    raw_tag: str


class Locus(_LocusFields):
    """Source position of a line: page, text unit, line number."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.page:
            raise ValueError("locus page must be nonempty")
        if self.line_no < 1:
            raise ValueError("locus line_no must be >= 1")
        return self

    _replace = __replace__ = checked_replace
    _make = checked_make

    @property
    def unit_kind(self) -> str:
        """Leading alphabetic part of the unit: "P1" and "P" both map to "P"."""
        return "".join(takewhile(str.isalpha, self.unit)) or self.unit


class _TokenFields(NamedTuple):
    raw: str
    graphemes: tuple[str, ...] | None = None


class Token(_TokenFields):
    """A word type where it occurs: its raw word and its graphemes (None
    until normalization)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.raw:
            raise ValueError("token must be nonempty")
        return self

    _replace = __replace__ = checked_replace
    _make = checked_make


class Line(NamedTuple):
    locus: Locus
    tokens: tuple[Token, ...]
    paragraph_initial: bool
    paragraph_final: bool
    paragraph_id: int


class _CorpusFields(NamedTuple):
    words: tuple[str, ...]
    graphemes: tuple[tuple[str, ...] | None, ...]
    ids: memoryview
    offsets: tuple[int, ...]
    loci: tuple[Locus, ...]
    paragraph_ids: tuple[int, ...]


class Corpus(_CorpusFields):
    """A corpus in columns (see the module docstring): line ``n`` holds the
    type ids ``ids[offsets[n]:offsets[n + 1]]``, a read-only memoryview of C
    ints, sits at ``loci[n]`` and is in paragraph ``paragraph_ids[n]``. A
    named tuple has no instance dict, so the fields are one and this
    subclass holds the dict that caches :attr:`counts` and :attr:`lines`."""

    @classmethod
    def from_rows(cls, records: Iterable[tuple[Locus, list[int], int]], words: Iterable[str],
                  graphemes: Iterable | None = None) -> "Corpus":
        """The corpus of (locus, type ids, paragraph id) line records in source
        order; ids follow first occurrence and index ``words`` and ``graphemes``."""
        loci, rows, paragraph_ids = tuple(zip(*records)) or ((), (), ())
        words = tuple(words)
        ids = memoryview(array("i", chain.from_iterable(rows))).toreadonly()
        return cls(words, (None,) * len(words) if graphemes is None else tuple(graphemes), ids,
                   tuple(accumulate(map(len, rows), initial=0)), loci, paragraph_ids)

    def relabeled(self, records: Iterable[tuple[Locus, Iterable[int], int]]) -> "Corpus":
        """:meth:`from_rows` of records holding this corpus's ids, with the
        types they hold renumbered by first occurrence and the rest dropped."""
        order: dict[int, int] = {}  # old type id -> new type id
        records = [(locus, [order.setdefault(k, len(order)) for k in row], para_id)
                   for locus, row, para_id in records]
        return self.from_rows(records, map(self.words.__getitem__, order),
                              list(map(self.graphemes.__getitem__, order)))

    def token_count(self) -> int:
        return len(self.ids)

    def line_ids(self) -> Iterator[memoryview]:
        """Each line's slice of :attr:`ids`, in line order."""
        return map(self.ids.__getitem__, map(slice, self.offsets, self.offsets[1:]))

    def paragraph_flags(self) -> Iterator[tuple[bool, bool]]:
        """Per line, (paragraph-initial, paragraph-final) from its neighbours' ids."""
        ids = self.paragraph_ids
        return zip(map(ne, (None, *ids), ids), map(ne, ids, (*ids[1:], None)))

    def segmentations(self) -> tuple[tuple[str, ...], ...]:
        """:attr:`graphemes`; raises naming the first type without any, since
        the corpus was never normalized."""
        if None in self.graphemes:
            raise ValueError(
                f"token {self.words[self.graphemes.index(None)]!r} has no "
                "grapheme segmentation; normalize the corpus first"
            )
        return self.graphemes

    @cached_property
    def counts(self) -> tuple[int, ...]:
        """Occurrences of each type, in id order."""
        found = Counter(self.ids)
        return tuple(map(found.__getitem__, range(len(self.words))))

    @cached_property
    def lines(self) -> tuple[Line, ...]:
        """:class:`Line` records, built on first read; a type is one :class:`Token`."""
        tokens = tuple(map(Token, self.words, self.graphemes))
        return tuple(
            Line(locus, tuple(map(tokens.__getitem__, row)), initial, final, para_id)
            for locus, row, (initial, final), para_id in zip(
                self.loci, self.line_ids(), self.paragraph_flags(), self.paragraph_ids)
        )

    def iter_tokens(self) -> Iterator[Token]:
        return chain.from_iterable(line.tokens for line in self.lines)


_LOCUS_RE = re.compile(
    r"<(?P<page>[^<>.;,\s]+)\.(?P<unit>[^<>.;,\s]+)\.(?P<line>\d+)"
    r"(?:;(?P<transcriber>[^<>]*))?>"
)
_BRACE_RE = re.compile(r"\{[^}]*\}")
_SEPARATORS_RE = re.compile(r"[.,\s=-]+")
_EDGE_PUNCT = string.punctuation + "‘’“”«»–—…"


def read_bytes(path: str | Path) -> bytes:
    """The file's bytes; a failed read raises a ValueError naming it."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of ``data`` in hex."""
    return _sha256(data).hexdigest()


def decode_text(data: bytes, path: str | Path) -> str:
    """``data``, read from ``path``, as UTF-8 text without a leading
    byte-order mark (which would otherwise make the first locus tag
    malformed). A byte that is not UTF-8 raises a ValueError naming the
    path and the byte's offset."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"cannot read {path}: not UTF-8 "
            f"(byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``; see :func:`decode_text`."""
    return decode_text(read_bytes(path), path)


def csv_bytes(rows: Iterable[Iterable]) -> bytes:
    """``rows`` as UTF-8 CSV with ``\n`` line ends, each field quoted only
    when it must be (as when it holds a comma)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


# Type checks for values read from parameter and profile files: each
# ValueError names the field, so a wrongly typed value is a data error.

def require_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def require_strings(name: str, value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    return tuple(value)


def parse_transliteration(text: str, units: frozenset[str] | None = None) -> Corpus:
    """Parse transliteration text into a corpus.

    ``units`` restricts ingestion to locus unit kinds (e.g. {"P"} keeps
    paragraph text and drops labels); None keeps every locus. Raises
    :class:`ParseError` for content lines without a well-formed locus tag
    (or with line number 0), and :class:`EmptyCorpusError` when nothing
    remains.
    """
    records = []
    types: dict[str, int] = {}  # raw word -> type id
    para_id = -1
    prev_page: str | None = None
    prev_unit: str | None = None
    pending_break = False

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped:
            pending_break = True
            continue
        if stripped.startswith("#"):
            continue
        match = _LOCUS_RE.match(stripped)
        if match is None:
            raise ParseError(line_no, f"malformed locus tag in {stripped[:40]!r}")
        try:
            locus = Locus(
                page=match.group("page"),
                unit=match.group("unit"),
                line_no=int(match.group("line")),
                raw_tag=match.group(0),
            )
        except ValueError as exc:
            raise ParseError(line_no, f"{exc} in {match.group(0)!r}") from None
        body = _BRACE_RE.sub("", stripped[match.end():])
        ends_paragraph = body.rstrip().endswith("=")
        body = body.replace("!", "").replace("%", "")

        if units is not None and locus.unit_kind not in units:
            pending_break = True
            continue

        if locus.page != prev_page or pending_break or locus.unit != prev_unit:
            para_id += 1
        row = [types.setdefault(t, len(types)) for t in _SEPARATORS_RE.split(body) if t]
        records.append((locus, row, para_id))
        prev_page = locus.page
        prev_unit = locus.unit
        pending_break = ends_paragraph

    if not records:
        raise EmptyCorpusError("empty corpus")
    return Corpus.from_rows(records, types)


def parse_plaintext(text: str) -> Corpus:
    """Parse newline-delimited plain text into a corpus.

    Tokens are split on whitespace, stripped of punctuation at their edges
    and case folded; lines left empty are dropped. Blank source lines
    separate paragraphs. The whole text is treated as a single page "text".
    """
    records = []
    types: dict[str, int] = {}  # raw word -> type id
    para_id = 0
    pending_break = False
    for raw_line in unicodedata.normalize("NFC", text).splitlines():
        if not raw_line.strip():
            pending_break = True
            continue
        words = [w.strip(_EDGE_PUNCT).casefold() for w in raw_line.split()]
        if not (row := [types.setdefault(w, len(types)) for w in words if w]):
            pending_break = True
            continue
        if pending_break and records:
            para_id += 1
        pending_break = False
        locus = Locus(page="text", unit="L", line_no=len(records) + 1, raw_tag="")
        records.append((locus, row, para_id))
    if not records:
        raise EmptyCorpusError("empty corpus")
    return Corpus.from_rows(records, types)


def normalize(corpus: Corpus, alphabet: Alphabet, min_graphemes: int = 2) -> Corpus:
    """Segment every word type and drop tokens shorter than ``min_graphemes``.

    Each word type is segmented once, in id order; kept types keep their
    order, so ids still follow first occurrence. Lines left without tokens
    are removed, and each surviving paragraph still has an initial and a
    final line. Idempotent. Raises :class:`selfcite.editdist.SegmentationError`
    for the first word the alphabet cannot segment, and
    :class:`EmptyCorpusError` when no token is left.
    """
    segmented = list(map(alphabet.segment, corpus.words))
    keep = [len(graphemes) >= min_graphemes for graphemes in segmented]
    # old type id -> new id, or -1 when dropped; kept types keep their order
    renumber = [n - 1 if kept else -1 for n, kept in zip(accumulate(keep), keep)]
    rows = ([k for k in map(renumber.__getitem__, row) if k >= 0] for row in corpus.line_ids())
    if not (lines := [line for line in zip(corpus.loci, rows, corpus.paragraph_ids) if line[1]]):
        raise EmptyCorpusError(f"empty corpus: no token has at least {min_graphemes} graphemes")
    return Corpus.from_rows(lines, compress(corpus.words, keep), compress(segmented, keep))


def filter_pages(corpus: Corpus, pages: Iterable[str]) -> Corpus:
    """Keep only lines whose page is in ``pages``, preserving order.

    The retained lines are adjacent afterwards, exactly as in the unfiltered
    corpus contract. Raises on an empty page set and when nothing matches.
    """
    page_set = frozenset(pages)
    if not page_set:
        raise ValueError("pages must be a nonempty set")
    kept = [line for line in zip(corpus.loci, corpus.line_ids(), corpus.paragraph_ids)
            if line[0].page in page_set]
    if not kept:
        raise EmptyCorpusError("no lines match")
    return corpus.relabeled(kept)


def format_transliteration(corpus: Corpus) -> str:
    """Serialize a corpus in the transliteration format.

    Paragraph boundaries become blank lines, so parsing the output yields
    the same tokens and paragraph structure.
    """
    words = corpus.words
    out: list[str] = []
    for locus, row, (initial, _) in zip(corpus.loci, corpus.line_ids(), corpus.paragraph_flags()):
        if initial and out:
            out.append("")
        tag = locus.raw_tag or f"<{locus.page}.{locus.unit}.{locus.line_no}>"
        out.append(f"{tag} {'.'.join(map(words.__getitem__, row))}")
    return "\n".join(out) + "\n"
