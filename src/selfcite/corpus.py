"""Corpus ingestion: transliteration and plaintext parsing, normalization.

A corpus is an ordered sequence of lines, each carrying its locus (page,
text-unit, line number) and tokens. Line order is source order, and after
any filtering the remaining lines are treated as adjacent, so the first
line of a page follows the last retained line of the previous page.

Word types are counted here and nowhere else: :attr:`Corpus.types` is the
corpus's :class:`TypeTable`, counted in one pass the first time it is read.
It lists each distinct raw word in order of first occurrence, with its
count and the graphemes of its first occurrence, and a type's id is its
position in the table. The grid's type-id matrix, the network, the
rank-frequency list and the character profile all read it.

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
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from selfcite.editdist import Alphabet


class ParseError(ValueError):
    """Malformed input, reported with its 1-based source line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class EmptyCorpusError(ValueError):
    """Too few tokens are left to analyse: none, or fewer than an analysis
    needs. The command line names the input file."""


@dataclass(frozen=True, slots=True)
class Locus:
    """Source position of a line: page, text unit, line number."""

    page: str
    unit: str
    line_no: int
    raw_tag: str

    def __post_init__(self):
        if not self.page:
            raise ValueError("locus page must be nonempty")
        if self.line_no < 1:
            raise ValueError("locus line_no must be >= 1")

    @property
    def unit_kind(self) -> str:
        """Leading alphabetic part of the unit: "P1" and "P" both map to "P"."""
        return "".join(takewhile(str.isalpha, self.unit)) or self.unit


@dataclass(frozen=True, slots=True)
class Token:
    """One word occurrence; graphemes are filled in by normalization."""

    raw: str
    graphemes: tuple[str, ...] | None = None

    def __post_init__(self):
        if not self.raw:
            raise ValueError("token must be nonempty")


@dataclass(frozen=True, slots=True)
class Line:
    locus: Locus
    tokens: tuple[Token, ...]
    paragraph_initial: bool
    paragraph_final: bool
    paragraph_id: int


class TypeInfo(NamedTuple):
    """One word type: its count and its graphemes (None until segmented); a
    named tuple, since one is built per type and builds faster than a dataclass."""

    count: int
    graphemes: tuple[str, ...] | None


@dataclass(frozen=True)
class TypeTable:
    """Distinct word types keyed on their raw word, in order of first
    occurrence when read from a corpus."""

    entries: dict[str, TypeInfo]

    @classmethod
    def from_corpus(cls, corpus: "Corpus", alphabet: Alphabet | None = None) -> "TypeTable":
        """The corpus's own table, :attr:`Corpus.types`, or, when ``alphabet``
        is given and some type is not segmented, a copy that it segments.
        Raises as :meth:`segmentations` does if a type is left unsegmented."""
        table = corpus.types
        entries = table.entries
        if alphabet is not None and not all(info.graphemes for info in entries.values()):
            table = cls({
                raw: TypeInfo(info.count, info.graphemes or alphabet.segment(raw))
                for raw, info in entries.items()
            })
        table.segmentations()  # raises for a type left unsegmented
        return table

    def segmentations(self) -> list[tuple[str, ...]]:
        """Each type's grapheme sequence, in table order; raises for a type
        that is not segmented, since its corpus was never normalized."""
        for raw, info in self.entries.items():
            if info.graphemes is None:
                raise ValueError(
                    f"token {raw!r} has no grapheme segmentation; "
                    "normalize the corpus first"
                )
        return [info.graphemes for info in self.entries.values()]

    def grapheme_counts(self) -> Counter:
        """Occurrences of each grapheme across all tokens."""
        counts = Counter()
        for info in self.entries.values():
            for g in info.graphemes:
                counts[g] += info.count
        return counts


@dataclass(frozen=True)
class Corpus:
    lines: tuple[Line, ...]

    def token_count(self) -> int:
        return sum(len(line.tokens) for line in self.lines)

    def iter_tokens(self) -> Iterator[Token]:
        for line in self.lines:
            yield from line.tokens

    @cached_property
    def types(self) -> TypeTable:
        """The corpus's word types, counted on first read (see the module
        docstring). Occurrences of a word are matched on ``raw``, so equal
        tokens need not be one object. Not a field: equality ignores it."""
        found: dict[str, list] = {}  # raw word -> [count, first graphemes]
        for token in self.iter_tokens():
            if (seen := found.get(token.raw)) is None:
                found[token.raw] = [1, token.graphemes]
            else:
                seen[0] += 1
        return TypeTable({raw: TypeInfo(*seen) for raw, seen in found.items()})


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


#: One retained source line: its locus, its tokens and its paragraph id.
LineRecord = tuple[Locus, tuple[Token, ...], int]


def assemble_corpus(records: list[LineRecord]) -> Corpus:
    """Build a corpus from line records given in source order; each line's
    paragraph-initial and paragraph-final flags follow from the paragraph
    ids of its neighbours."""
    lines = []
    for idx, (locus, tokens, para_id) in enumerate(records):
        initial = idx == 0 or records[idx - 1][2] != para_id
        final = idx == len(records) - 1 or records[idx + 1][2] != para_id
        lines.append(Line(locus, tokens, initial, final, para_id))
    return Corpus(tuple(lines))


def parse_transliteration(text: str, units: frozenset[str] | None = None) -> Corpus:
    """Parse transliteration text into a corpus.

    ``units`` restricts ingestion to locus unit kinds (e.g. {"P"} keeps
    paragraph text and drops labels); None keeps every locus. Raises
    :class:`ParseError` for content lines without a well-formed locus tag
    (or with line number 0), and :class:`EmptyCorpusError` when nothing
    remains. All occurrences of a word share one :class:`Token`.
    """
    by_raw: dict[str, Token] = {}
    records: list[LineRecord] = []
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
        token_strings = [t for t in _SEPARATORS_RE.split(body) if t]

        if units is not None and locus.unit_kind not in units:
            pending_break = True
            continue

        if locus.page != prev_page or pending_break or locus.unit != prev_unit:
            para_id += 1
        tokens = tuple(
            by_raw.get(t) or by_raw.setdefault(t, Token(t)) for t in token_strings
        )
        records.append((locus, tokens, para_id))
        prev_page = locus.page
        prev_unit = locus.unit
        pending_break = ends_paragraph

    if not records:
        raise EmptyCorpusError("empty corpus")
    return assemble_corpus(records)


def parse_plaintext(text: str) -> Corpus:
    """Parse newline-delimited plain text into a corpus.

    Tokens are split on whitespace, stripped of punctuation at their edges
    and case folded; lines left empty are dropped. Blank source lines
    separate paragraphs. The whole text is treated as a single page "text".
    All occurrences of a word share one :class:`Token`.
    """
    by_raw: dict[str, Token] = {}
    records: list[LineRecord] = []
    para_id = 0
    pending_break = False
    line_no = 0
    for raw_line in unicodedata.normalize("NFC", text).splitlines():
        if not raw_line.strip():
            pending_break = True
            continue
        tokens = []
        for word in raw_line.split():
            word = word.strip(_EDGE_PUNCT).casefold()
            if not word:
                continue
            tokens.append(by_raw.get(word) or by_raw.setdefault(word, Token(word)))
        if not tokens:
            pending_break = True
            continue
        if pending_break and records:
            para_id += 1
        pending_break = False
        line_no += 1
        locus = Locus(page="text", unit="L", line_no=line_no, raw_tag="")
        records.append((locus, tuple(tokens), para_id))
    if not records:
        raise EmptyCorpusError("empty corpus")
    return assemble_corpus(records)


def normalize(corpus: Corpus, alphabet: Alphabet, min_graphemes: int = 2) -> Corpus:
    """Segment every distinct word and drop tokens shorter than ``min_graphemes``.

    Each distinct raw word is segmented once, and all its occurrences share
    one segmented :class:`Token`. Lines left without tokens are removed;
    paragraph flags are rederived so each surviving paragraph still has an
    initial and a final line. Idempotent. Raises
    :class:`selfcite.editdist.SegmentationError` for words the alphabet
    cannot segment, and :class:`EmptyCorpusError` when no token is left.
    """
    # raw word -> its segmented token, or None when it is too short to keep
    by_raw: dict[str, Token | None] = {}
    kept: list[LineRecord] = []
    for line in corpus.lines:
        tokens = []
        for token in line.tokens:
            try:
                segmented = by_raw[token.raw]
            except KeyError:
                graphemes = alphabet.segment(token.raw)
                segmented = by_raw[token.raw] = (
                    Token(token.raw, graphemes)
                    if len(graphemes) >= min_graphemes
                    else None
                )
            if segmented is not None:
                tokens.append(segmented)
        if tokens:
            kept.append((line.locus, tuple(tokens), line.paragraph_id))
    if not kept:
        raise EmptyCorpusError(
            f"empty corpus: no token has at least {min_graphemes} graphemes"
        )
    return assemble_corpus(kept)


def filter_pages(corpus: Corpus, pages: Iterable[str]) -> Corpus:
    """Keep only lines whose page is in ``pages``, preserving order.

    The retained lines are adjacent afterwards, exactly as in the unfiltered
    corpus contract. Raises on an empty page set and when nothing matches.
    """
    page_set = frozenset(pages)
    if not page_set:
        raise ValueError("pages must be a nonempty set")
    kept = [(line.locus, line.tokens, line.paragraph_id)
            for line in corpus.lines if line.locus.page in page_set]
    if not kept:
        raise EmptyCorpusError("no lines match")
    return assemble_corpus(kept)


def format_transliteration(corpus: Corpus) -> str:
    """Serialize a corpus in the transliteration format.

    Paragraph boundaries become blank lines, so parsing the output yields
    the same tokens and paragraph structure.
    """
    out: list[str] = []
    for line in corpus.lines:
        if line.paragraph_initial and out:
            out.append("")
        tag = line.locus.raw_tag or (
            f"<{line.locus.page}.{line.locus.unit}.{line.locus.line_no}>"
        )
        out.append(f"{tag} {'.'.join(tok.raw for tok in line.tokens)}")
    return "\n".join(out) + "\n"
