"""Positional word co-occurrence analysis and self-citation text generation.

The package parses transliterated manuscripts or plain text into a
line-structured corpus, computes windowed co-occurrence grids of identical
and similar words under a configurable weighted edit distance, reports
line/paragraph positional statistics, builds word-similarity networks, and
generates synthetic text by the copy-and-mutate process those statistics
suggest.
"""

from selfcite.corpus import (
    Corpus,
    Line,
    Locus,
    ParseError,
    Token,
    filter_pages,
    format_transliteration,
    normalize,
    parse_plaintext,
    parse_transliteration,
)
from selfcite.editdist import Alphabet, SegmentationError, are_similar, edit_distance
from selfcite.cooccur import (
    CooccurrenceGrid,
    GridSpec,
    compute_grid,
    compute_grids,
    render_grid,
    summarize_decay,
)
from selfcite.posstats import PositionalReport, Rate, positional_stats, rank_frequency
from selfcite.network import (
    SimilarityGraph,
    TypeTable,
    build_graph,
    degree_coverage,
    frequency_ratio_report,
    shortest_path,
)
from selfcite.generator import (
    GeneratorParams,
    SignatureReport,
    generate,
    shuffle_control,
    validate_signature,
)
from selfcite.profiles import Profile, load_profile, profile_from_corpus

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CooccurrenceGrid",
    "Corpus",
    "GeneratorParams",
    "GridSpec",
    "Line",
    "Locus",
    "ParseError",
    "PositionalReport",
    "Profile",
    "Rate",
    "SegmentationError",
    "SignatureReport",
    "SimilarityGraph",
    "Token",
    "TypeTable",
    "are_similar",
    "build_graph",
    "compute_grid",
    "compute_grids",
    "degree_coverage",
    "edit_distance",
    "filter_pages",
    "format_transliteration",
    "frequency_ratio_report",
    "generate",
    "load_profile",
    "normalize",
    "parse_plaintext",
    "parse_transliteration",
    "positional_stats",
    "profile_from_corpus",
    "rank_frequency",
    "render_grid",
    "shortest_path",
    "shuffle_control",
    "summarize_decay",
    "validate_signature",
]
