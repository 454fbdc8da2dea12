from collections import Counter

import pytest

from selfcite.corpus import format_transliteration, normalize, parse_transliteration
from selfcite.generator import (
    GeneratorParams,
    generate,
    shuffle_control,
    validate_signature,
)
from selfcite.posstats import positional_stats
from selfcite.profiles import load_profile

PROFILE = load_profile("vms")
VMS = PROFILE.alphabet


def small_params(**overrides):
    base = dict(target_token_count=300, rng_seed=7)
    base.update(overrides)
    return GeneratorParams.defaults().replace(**base)


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


def test_defaults_load_from_packaged_file():
    params = GeneratorParams.defaults()
    assert params.seed_words == ("daiin", "ol", "chedy")
    assert params.target_token_count == 10_000


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
    corpus = generate(GeneratorParams.defaults(), VMS)
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
    with pytest.raises(ValueError, match="2000 tokens"):
        validate_signature(corpus, VMS)


def test_validate_floor_counts_tokens_after_normalization():
    # 2100 raw tokens, of which only 1500 have the two graphemes normalize keeps
    text = "\n".join(
        f"<f1r.P.{i + 1}> " + ".".join(["daiin"] * 5 + ["y"] * 2) for i in range(300)
    )
    corpus = parse_transliteration(text)
    assert corpus.token_count() == 2100
    assert normalize(corpus, VMS).token_count() == 1500
    with pytest.raises(ValueError, match="2000 tokens"):
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
