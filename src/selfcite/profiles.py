"""Analysis profiles: an alphabet plus the glyph sets the statistics use.

Profiles are data, not code. The shipped "vms" profile carries the EVA
grapheme inventory, the similarity classes treated as one-cost
substitutions, and the gallows/prefix/line-final sets; editing the JSON and
re-running reproduces every published number under corrected classes. The
"chars" profile is synthesized from whatever characters a plaintext corpus
contains, with no similarity classes and unit costs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple

from selfcite.cooccur import MAX_OFFSET
from selfcite.corpus import Corpus, EmptyCorpusError, decode_text, read_bytes
from selfcite.corpus import require_int, require_strings, sha256_hex
from selfcite.editdist import Alphabet

BUILTIN_PROFILES = ("vms",)


class Profile(NamedTuple):
    name: str
    alphabet: Alphabet
    gallows: frozenset[str]
    prefixes: frozenset[str]
    line_final_glyphs: frozenset[str]
    grid_pos_offset: int
    digest: str

    def describe(self) -> dict:
        """Effective profile as a JSON-ready dict."""
        return {
            "name": self.name,
            "graphemes": list(self.alphabet.graphemes),
            "similarity_groups": [sorted(g) for g in self.alphabet.similarity_groups],
            "similar_substitution_cost": self.alphabet.similar_substitution_cost,
            "dissimilar_substitution_cost": self.alphabet.dissimilar_substitution_cost,
            "indel_cost": self.alphabet.indel_cost,
            "gallows": sorted(self.gallows),
            "prefixes": sorted(self.prefixes),
            "line_final_glyphs": sorted(self.line_final_glyphs),
            "grid_pos_offset": self.grid_pos_offset,
            "digest": self.digest,
        }


def _profile_from_dict(data, name: str, digest: str) -> Profile:
    """The profile ``data`` describes; a ValueError names the field at fault."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if "graphemes" not in data:
        raise ValueError("missing 'graphemes'")
    groups = data.get("similarity_groups", [])
    if not isinstance(groups, list) or not all(
        isinstance(g, list) and all(isinstance(x, str) for x in g) for g in groups
    ):
        raise ValueError(
            f"similarity_groups must be a list of lists of strings, got {groups!r}"
        )
    alphabet = Alphabet(
        graphemes=require_strings("graphemes", data["graphemes"]),
        similarity_groups=tuple(frozenset(g) for g in groups),
        similar_substitution_cost=data.get("similar_substitution_cost", 1),
        dissimilar_substitution_cost=data.get("dissimilar_substitution_cost", 2),
        indel_cost=data.get("indel_cost", 1),
    )
    glyphs = {
        key: frozenset(require_strings(key, data.get(key, [])))
        for key in ("gallows", "prefixes", "line_final_glyphs")
    }
    for key, values in glyphs.items():
        for g in sorted(values):
            if g not in alphabet:
                raise ValueError(f"{key} grapheme {g!r} not in inventory")
    name = data.get("name", name)
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, got {name!r}")
    offset = require_int("grid_pos_offset", data.get("grid_pos_offset", 6))
    if not 1 <= offset <= MAX_OFFSET:
        raise ValueError(f"grid_pos_offset must be >= 1 and <= {MAX_OFFSET}, got {offset}")
    return Profile(name, alphabet, **glyphs, grid_pos_offset=offset, digest=digest)


def load_profile(spec: str | Path) -> Profile:
    """Load a profile by builtin name ("vms") or from a JSON file path."""
    if isinstance(spec, str) and spec in BUILTIN_PROFILES:
        raw = Path(__file__).with_name("data").joinpath("profiles", f"{spec}.json").read_bytes()
        name = spec
    else:
        path = Path(spec)
        if not path.exists():
            raise ValueError(
                f"profile {spec!r} is neither a builtin name "
                f"({', '.join(BUILTIN_PROFILES)}) nor an existing file"
            )
        raw = read_bytes(path)
        name = path.stem
    text = decode_text(raw, spec)
    try:
        return _profile_from_dict(json.loads(text), name, sha256_hex(raw))
    except ValueError as exc:  # JSONDecodeError is one too
        raise ValueError(f"malformed profile {spec}: {exc}") from None


def profile_from_corpus(corpus: Corpus) -> Profile:
    """Single-character profile over the characters observed in a corpus."""
    chars = sorted(set("".join(corpus.words)))
    if not chars:
        raise EmptyCorpusError("empty corpus")
    alphabet = Alphabet.single_characters(chars)
    digest = sha256_hex(("chars:" + "".join(chars)).encode())
    return Profile(
        name="chars",
        alphabet=alphabet,
        gallows=frozenset(),
        prefixes=frozenset(),
        line_final_glyphs=frozenset(),
        grid_pos_offset=5,
        digest=digest,
    )
