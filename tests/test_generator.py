import hashlib
import random
import re
import tracemalloc
from collections import Counter, deque
from itertools import chain, count

import pytest
from hypothesis import assume, given, strategies as st

from selfcite.corpus import format_transliteration, normalize, parse_transliteration
from selfcite.editdist import Alphabet
from selfcite.generator import (
    MUTATION_KINDS,
    SOURCE_BIAS_KERNELS,
    GeneratorParams,
    _cumulative,
    _draw,
    _kind_tables,
    _mutate,
    _pick_source,
    _source_weights,
    generate,
    shuffle_control,
    validate_signature,
)
from selfcite.posstats import positional_stats
from selfcite.profiles import load_profile

from helpers import oracle_draw, oracle_mutate, oracle_pick_source

PROFILE = load_profile("vms")
VMS = PROFILE.alphabet


def small_params(**overrides):
    base = dict(target_token_count=300, rng_seed=7)
    base.update(overrides)
    return GeneratorParams(**base)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_reject_bad_probability():
    with pytest.raises(ValueError, match="copy_probability"):
        GeneratorParams(copy_probability=1.5)


def test_params_reject_non_normalized_distribution():
    with pytest.raises(ValueError, match="sum to 1"):
        GeneratorParams(line_length_distribution=((5, 0.4), (6, 0.4)))


def test_params_reject_unknown_mutation_kind():
    with pytest.raises(ValueError, match="unknown mutation kind"):
        GeneratorParams(mutation_kind_weights=(("transpose", 1.0),))


def test_params_reject_unknown_field():
    with pytest.raises(ValueError, match="unknown generator parameters"):
        GeneratorParams.from_dict({"coppy_probability": 0.5})


@pytest.mark.parametrize("field, value", [
    ("seed_words", "daiin"),
    ("seed_words", [1]),
    ("copy_probability", "0.5"),
    ("copy_probability", True),
    ("mutation_count_distribution", {"one": 1.0}),
    ("mutation_count_distribution", [[0, 0.5, 1]]),
    ("mutation_kind_weights", {"insert": None}),
    ("line_length_distribution", [1, 2]),
    ("paragraph_length_distribution", 4),
    ("source_window_lines", 2.5),
    ("source_position_bias", ["uniform"]),
    ("gallows_graphemes", None),
    ("rng_seed", "1"),
    ("target_token_count", [10]),
    ("line_length_distribution", [[7.5, 1.0]]),
    ("line_length_distribution", [[True, 1.0]]),
    ("mutation_count_distribution", {"0": float("nan"), "1": 1.0}),
    ("mutation_kind_weights", {"insert": float("inf")}),
    ("mutation_kind_weights", {"insert": 10**400}),
    ("copy_probability", float("nan")),
    ("mutation_kind_weights", {"insert": 1e308, "delete": 1e308}),
])
def test_params_reject_wrong_types_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        GeneratorParams.from_dict({field: value})


def test_params_take_a_dict_for_each_weighted_field():
    # as from_dict does, the constructor reads a dict's items in order
    fields = {
        "mutation_count_distribution": {0: 0.5, 1: 0.5},
        "mutation_kind_weights": {"delete": 0.25, "insert": 0.75},
        "line_length_distribution": {9: 0.5, 7: 0.5},
        "paragraph_length_distribution": {3: 1.0},
    }
    params = GeneratorParams(**fields)
    as_json = {name: {str(k): v for k, v in value.items()} for name, value in fields.items()}
    assert params == GeneratorParams.from_dict(as_json)
    assert params.mutation_count_distribution == ((0, 0.5), (1, 0.5))
    assert params.mutation_kind_weights == (("delete", 0.25), ("insert", 0.75))
    assert params.line_length_distribution == ((7, 0.5), (9, 0.5))


def test_params_from_dict_needs_an_object():
    with pytest.raises(ValueError, match="expected a JSON object, got list"):
        GeneratorParams.from_dict([["rng_seed", 1]])


def test_params_file_with_bad_json_is_named(tmp_path):
    path = tmp_path / "params.json"
    path.write_text('{"rng_seed": ', encoding="utf-8")
    message = re.escape(f"malformed generator parameters {path}")
    with pytest.raises(ValueError, match=message):
        GeneratorParams.from_file(path)


def test_defaults_are_the_calibrated_values():
    params = GeneratorParams()
    assert params.seed_words == ("daiin", "ol", "chedy")
    assert params.target_token_count == 10_000
    assert params.copy_probability == 0.88
    assert params.line_initial_prefix_probability == 0.65
    assert params.paragraph_initial_gallows_probability == 0.86
    assert [k for k, _ in params.line_length_distribution] == list(range(5, 13))


def test_params_from_dict_sets_only_the_keys_it_holds():
    assert GeneratorParams.from_dict({"rng_seed": 5}) == GeneratorParams(rng_seed=5)
    # keys of files copied from the earlier defaults template, whose
    # "version" is ignored, still load
    template = {"version": 1, "copy_probability": 0.88,
                "mutation_count_distribution": {"0": 0.45, "1": 0.35, "2": 0.2}}
    assert GeneratorParams.from_dict(template) == GeneratorParams()


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_single_token_is_a_seed_word():
    params = small_params(target_token_count=1)
    corpus = generate(params, VMS)
    assert corpus.token_count() == 1
    token = corpus.lines[0].tokens[0]
    # the bootstrap word may carry a paragraph-initial gallows glyph
    candidates = set(params.seed_words) | {
        g + w for w in params.seed_words for g in params.gallows_graphemes
    }
    assert token.raw in candidates


def test_exact_token_count_and_loci():
    corpus = generate(small_params(), VMS)
    assert corpus.token_count() == 300
    assert corpus.lines[0].locus.raw_tag == "<g001.P.1>"
    for line in corpus.lines:
        assert line.locus.page.startswith("g")
        assert line.locus.unit == "P"


def test_determinism_byte_identical():
    a = format_transliteration(generate(small_params(), VMS))
    b = format_transliteration(generate(small_params(), VMS))
    assert a.encode() == b.encode()


# SHA-256 of format_transliteration(generate(...)) for 3000 tokens: any
# change to the RNG call sequence or to the floats fed to rng.choices changes
# these bytes. The first five were made before the source selection was
# memoised; the last three, which cover the second-word strip, the
# line-opening glyphs and the substitution-only edits, before the source
# window was built once per line.
GENERATOR_PINS = [
    ({"rng_seed": 1},
     "9212a6cbe228dc7e05c9516d4746608ffe82e62b8f0ce90d62037b43f3559d18"),
    ({"rng_seed": 2},
     "ef88bc946d005a67830de50e7abee6a069e2e5c79067d9c00e3a483f6c7a8e4f"),
    ({"rng_seed": 1, "source_position_bias": "uniform"},
     "ad5249635f0148b38a061e1bc0f03b55e3fdf36cc15463a3052702793853b426"),
    ({"rng_seed": 1, "source_window_lines": 1},
     "6865315f228aa8d370e3d1de4af4d77f604ec920fa0bab210817100929ca191a"),
    ({"rng_seed": 1, "line_final_glyph_probability": 0.5},
     "bea09c94b0ee4c64cea110cd1ec27a70a2d4e8e4fd389bedab34bc0f1b672107"),
    ({"rng_seed": 1, "second_word_strip_probability": 1.0},
     "e7e2589b65e21ef80605ce8ca08b0ef7cf7a549313f29fccf95b3f3686b552ff"),
    ({"rng_seed": 1, "paragraph_initial_gallows_probability": 1.0,
      "line_initial_prefix_probability": 1.0},
     "89ee3f82bf4895f511d398da2f258547d383affedd9b3c9512b138593f33257a"),
    ({"rng_seed": 1, "mutation_kind_weights": (("substitute_similar", 1.0),)},
     "330d58e98bd81cd0b7a4a0d6ec48593e6a3faed48f7d1cb50657a71473c431ee"),
]


@pytest.mark.parametrize(
    "overrides, digest", GENERATOR_PINS,
    ids=["seed1", "seed2", "uniform", "window1", "final_glyph", "strip1",
         "initials1", "substitute_only"],
)
def test_output_matches_pinned_digest(overrides, digest):
    params = GeneratorParams(target_token_count=3000, **overrides)
    text = format_transliteration(generate(params, VMS))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _window_lines(lengths, tag):
    # every word is distinct, so equal draws mean the same candidate index
    return [[(tag, str(n), str(p)) for p in range(length)]
            for n, length in enumerate(lengths)]


@given(
    bias=st.sampled_from(sorted(SOURCE_BIAS_KERNELS)),
    window_lines=st.integers(1, 10),
    history_lengths=st.lists(st.integers(0, 12), max_size=12),
    current_length=st.integers(0, 12),
    m=st.integers(0, 12),
    spare_positions=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_pick_source_matches_per_candidate_oracle(
    bias, window_lines, history_lengths, current_length, m, spare_positions, seed
):
    params = GeneratorParams(
        source_position_bias=bias, source_window_lines=window_lines
    )
    history = _window_lines(history_lengths, "h")
    current = _window_lines([current_length], "c")[0]
    # one window serves every position of its line
    positions = m + 1 + spare_positions
    # as generate reads them: no line is longer than reach, nor any
    # position past it
    reach = max(positions, *history_lengths, current_length)
    by_offset, rows = _source_weights(bias, reach)
    above = deque(maxlen=window_lines - 1)
    above.extendleft(history)
    above_words = list(chain.from_iterable(above))
    above_rows = tuple(map(rows, count(1), map(len, above)))
    fast, slow = random.Random(seed), random.Random(seed)
    for position in (m, m, *range(positions)):
        own = by_offset(0)[reach - position : reach - position + current_length]
        assert _pick_source(above_words, above_rows, current, own, position, fast) == (
            oracle_pick_source(history, current, position, slow, params)
        )
        assert fast.getstate() == slow.getstate()


def _traced_generate(params):
    """The traced peak of ``generate(params, VMS)``, and what stays traced
    once it has returned and its corpus is dropped."""
    tracemalloc.start()
    try:
        corpus = generate(params, VMS)
        peak = tracemalloc.get_traced_memory()[1]
        del corpus
        return peak, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_source_weights_of_the_current_line_are_one_row_per_position():
    # Three 120-word lines. The current line's weights are one slice of at
    # most 120 weights per draw, and the two lines above hold 2 x 120 x 120
    # pointers (0.23 MB); a table of m + 1 rows per position m would hold
    # 576k floats, and generate would peak near 20 MB.
    peak, _ = _traced_generate(
        GeneratorParams(line_length_distribution=((120, 1.0),), target_token_count=360)
    )
    assert peak < 5_000_000
    # Five 400-word lines: the four lines above hold 4 x 400 x 400 pointers
    # (5.1 MB), all freed when generate returns; weights cached past the
    # call, with floats of their own per row, would stay held (23 MB).
    peak, held = _traced_generate(
        GeneratorParams(line_length_distribution=((400, 1.0),), target_token_count=2000)
    )
    assert held < 1_000_000
    assert peak < 10_000_000


def test_weights_reach_no_further_than_the_token_target():
    # The one 20,000-word line drawn is cut at the 500-token target, so no
    # line is longer than 500 words and no position reaches past 500.
    # Weight rows for all 20,000 positions of each 2-word line above
    # would peak near 9 MB.
    params = GeneratorParams(
        line_length_distribution=((2, 0.9), (20_000, 0.1)), target_token_count=500
    )
    peak, _ = _traced_generate(params)
    assert peak < 3_000_000


@given(
    weights=st.lists(st.floats(0.001, 1.0), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_matches_per_call_oracle(weights, seed):
    distribution = tuple((k, w / sum(weights)) for k, w in enumerate(weights))
    cumulative = _cumulative(distribution)
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(5):
        assert _draw(fast, cumulative) == oracle_draw(slow, distribution)
        assert fast.getstate() == slow.getstate()


# "a" and "o" are similar; "ch", "d" and "y" have no partner, so words of
# them alone cannot take a similar substitution, and one-grapheme words
# cannot take a deletion.
MUTATE_ALPHABET = Alphabet(
    graphemes=("ch", "a", "o", "d", "y"),
    similarity_groups=(frozenset({"a", "o"}),),
)


@given(
    word=st.lists(st.sampled_from(MUTATE_ALPHABET.graphemes), min_size=1, max_size=4),
    order=st.permutations(MUTATION_KINDS),
    weights=st.lists(st.sampled_from([0.0, 0.3, 0.35, 1.0]), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_mutate_matches_per_call_oracle(word, order, weights, seed):
    assume(any(weights))
    params = GeneratorParams(mutation_kind_weights=tuple(zip(order, weights)))
    tables = _kind_tables(params)
    partners = MUTATE_ALPHABET.similar_partners
    insertable = MUTATE_ALPHABET.graphemes
    seq = tuple(word)
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _mutate(seq, fast, partners, tables, insertable) == (
            oracle_mutate(seq, slow, MUTATE_ALPHABET, params, insertable)
        )
        assert fast.getstate() == slow.getstate()


def test_different_seeds_differ():
    a = format_transliteration(generate(small_params(rng_seed=1), VMS))
    b = format_transliteration(generate(small_params(rng_seed=2), VMS))
    assert a != b


def test_every_token_segmentable_and_nonempty():
    corpus = generate(small_params(target_token_count=2000), VMS)
    for token in corpus.iter_tokens():
        assert len(token.graphemes) >= 1
        assert VMS.segment(token.raw) == token.graphemes


def test_round_trips_through_serializer():
    corpus = generate(small_params(), VMS)
    reparsed = parse_transliteration(format_transliteration(corpus))
    assert [t.raw for t in reparsed.iter_tokens()] == [
        t.raw for t in corpus.iter_tokens()
    ]
    assert [l.paragraph_initial for l in reparsed.lines] == [
        l.paragraph_initial for l in corpus.lines
    ]


def test_copy_probability_zero_vocabulary():
    params = small_params(copy_probability=0.0, target_token_count=500)
    corpus = generate(params, VMS)
    allowed = set(params.seed_words)
    allowed |= {g + w for w in params.seed_words for g in params.gallows_graphemes}
    allowed |= {p + w for w in params.seed_words for p in params.prefix_graphemes}
    assert {t.raw for t in corpus.iter_tokens()} <= allowed


def test_no_mutations_means_exact_copies_lift():
    params = small_params(
        target_token_count=4000,
        mutation_count_distribution=((0, 1.0),),
        rng_seed=13,
    )
    corpus = generate(params, VMS)
    lifts = []
    for seed in range(5):
        shuffled = validate_signature(shuffle_control(corpus, seed), VMS)
        lifts.append(shuffled.adjacency_lift)
    original = validate_signature(corpus, VMS)
    assert original.adjacency_lift > max(lifts)


def test_one_line_source_window_falls_back_to_seeds():
    params = small_params(source_window_lines=1, target_token_count=200)
    corpus = generate(params, VMS)
    assert corpus.token_count() == 200


def test_paragraph_structure_well_formed():
    corpus = generate(small_params(target_token_count=1000), VMS)
    by_para = {}
    for line in corpus.lines:
        by_para.setdefault(line.paragraph_id, []).append(line)
    for lines in by_para.values():
        assert lines[0].paragraph_initial
        assert lines[-1].paragraph_final
        pages = {l.locus.page for l in lines}
        assert len(pages) == 1  # paragraphs never span pages


def test_line_final_effect_appends_glyph():
    params = small_params(line_final_glyph_probability=1.0,
                          target_token_count=200)
    corpus = generate(params, VMS)
    full_lines = [l for l in corpus.lines]
    # every completed line must end with the line-final glyph
    ends = [l.tokens[-1].graphemes[-1] for l in full_lines[:-1]]
    assert set(ends) <= set(params.line_final_glyphs)


def test_generated_text_hits_positional_anchors():
    corpus = generate(GeneratorParams(), VMS)
    norm = normalize(corpus, VMS)
    stats = positional_stats(norm, PROFILE.gallows, PROFILE.prefixes,
                             PROFILE.line_final_glyphs)
    assert abs(stats.paragraph_initial_gallows_rate.value - 0.86) <= 0.10
    assert abs(stats.line_initial_prefix_rate.value - 0.68) <= 0.10
    assert abs(stats.second_shorter_rate.value - 0.48) <= 0.10


# ---------------------------------------------------------------------------
# shuffle control
# ---------------------------------------------------------------------------

def test_shuffle_preserves_multiset_and_line_lengths():
    corpus = generate(small_params(), VMS)
    shuffled = shuffle_control(corpus, 5)
    assert Counter(t.raw for t in shuffled.iter_tokens()) == Counter(
        t.raw for t in corpus.iter_tokens()
    )
    assert [len(l.tokens) for l in shuffled.lines] == [
        len(l.tokens) for l in corpus.lines
    ]


def test_shuffle_single_token_unchanged():
    corpus = generate(small_params(target_token_count=1), VMS)
    shuffled = shuffle_control(corpus, 99)
    assert [t.raw for t in shuffled.iter_tokens()] == [
        t.raw for t in corpus.iter_tokens()
    ]


def test_shuffle_deterministic():
    corpus = generate(small_params(), VMS)
    a = format_transliteration(shuffle_control(corpus, 3))
    b = format_transliteration(shuffle_control(corpus, 3))
    assert a == b


def test_shuffle_adjacency_falls_to_repeat_baseline():
    from selfcite.cooccur import GridSpec, compute_grid

    corpus = generate(small_params(target_token_count=6000, rng_seed=21), VMS)
    norm = normalize(corpus, VMS)
    counts = Counter(t.raw for t in norm.iter_tokens())
    n = norm.token_count()
    baseline = sum(c * (c - 1) for c in counts.values()) / (n * (n - 1))
    spec = GridSpec(alphabet=VMS)
    original = compute_grid(norm, spec).proportion(0, -1)
    shuffled = compute_grid(
        normalize(shuffle_control(corpus, 8), VMS), spec
    ).proportion(0, -1)
    # the shuffled rate sits near the global repeat baseline; the original
    # sits way above it
    assert abs(shuffled - baseline) < 0.35 * baseline
    assert original > 2 * baseline


# ---------------------------------------------------------------------------
# signature validation
# ---------------------------------------------------------------------------

def test_validate_rejects_small_corpus():
    corpus = generate(small_params(target_token_count=100), VMS)
    with pytest.raises(ValueError, match=r"^corpus too small: \d+ tokens of at least "
                                         r"2 graphemes, need 2000$"):
        validate_signature(corpus, VMS)


def test_validate_floor_counts_tokens_after_normalization():
    # 2100 raw tokens, of which only 1500 have the two graphemes normalize keeps
    text = "\n".join(
        f"<f1r.P.{i + 1}> " + ".".join(["daiin"] * 5 + ["y"] * 2) for i in range(300)
    )
    corpus = parse_transliteration(text)
    assert corpus.token_count() == 2100
    assert normalize(corpus, VMS).token_count() == 1500
    with pytest.raises(ValueError, match="^corpus too small: 1500 tokens of at least "
                                         "2 graphemes, need 2000$"):
        validate_signature(corpus, VMS)


def test_validate_saturated_corpus_has_unit_lift():
    text = "\n".join(
        f"<f1r.P.{i + 1}> " + ".".join(["daiin"] * 8) for i in range(300)
    )
    corpus = parse_transliteration(text)
    report = validate_signature(corpus, VMS)
    assert report.adjacency_lift == 1.0
    assert report.natural_text_contrast == 1.0


def test_validate_report_fields():
    corpus = generate(small_params(target_token_count=2500, rng_seed=4), VMS)
    report = validate_signature(corpus, VMS)
    assert set(report.row_decay) == {0, 1, 2}
    assert report.token_count == 2500
    data = report.as_dict()
    assert data["row_decay_ok"] == report.row_decay_ok
    assert "n-1" in data["row_means"]["0"]
