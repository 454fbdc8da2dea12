"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
lines. Criteria 3 and 4 evaluate published full-manuscript numbers and need
the Takahashi transliteration file, which is not redistributable here: point
SELFCITE_TRANSCRIPTION at it (or drop it at tests/data/transcription.evt)
and those tests stop skipping.
"""

import itertools
import os
import time
from pathlib import Path

import pytest

from selfcite.cooccur import GridSpec, compute_grid, compute_grids, summarize_decay
from selfcite.corpus import (
    format_transliteration,
    normalize,
    parse_plaintext,
    parse_transliteration,
)
from selfcite.editdist import Alphabet, edit_distance
from selfcite.generator import (
    GeneratorParams,
    generate,
    shuffle_control,
    validate_signature,
)
from selfcite.network import TypeTable, build_graph, degree_coverage, shortest_path
from selfcite.posstats import positional_stats
from selfcite.profiles import load_profile

from helpers import (
    HAND_ALPHABETS,
    HAND_GRID_CASES,
    batch_distances,
    brute_force_grid_counts,
    naive_distance,
)

PROFILE = load_profile("vms")
DATA_DIR = Path(__file__).parent / "data"


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS  {detail}")


def _transcription():
    env = os.environ.get("SELFCITE_TRANSCRIPTION")
    path = Path(env) if env else DATA_DIR / "transcription.evt"
    if not path.exists():
        pytest.skip(
            "needs the user-supplied Takahashi transliteration; set "
            "SELFCITE_TRANSCRIPTION or place tests/data/transcription.evt"
        )
    return parse_transliteration(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def vms_normalized():
    return normalize(_transcription(), PROFILE.alphabet)


@pytest.fixture(scope="session")
def generated_corpora():
    params = GeneratorParams.defaults()
    return {
        seed: generate(params.replace(rng_seed=seed), PROFILE.alphabet)
        for seed in (1, 2, 3, 4, 5)
    }


# ---------------------------------------------------------------------------
# criterion 1: edit distance equals the exhaustive recursive oracle
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    alphabet = Alphabet(
        graphemes=("a", "b", "c"),
        similarity_groups=(frozenset({"a", "b"}),),
        dissimilar_substitution_cost=2,
    )
    strings = [()]
    for n in range(1, 5):
        strings.extend(itertools.product(alphabet.graphemes, repeat=n))
    started = time.perf_counter()
    pairs = [(a, b) for idx, a in enumerate(strings) for b in strings[idx:]]
    for (a, b), d in zip(pairs, batch_distances(pairs, alphabet)):
        assert d == naive_distance(a, b, alphabet)
    # edit_distance itself, one pair at a time, on a fixed sample
    sample = pairs[::36]
    for a, b in sample:
        assert edit_distance(a, b, alphabet) == naive_distance(a, b, alphabet)
    elapsed = time.perf_counter() - started
    assert len(pairs) == 7381
    assert len(sample) >= 200
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s"
    _report("criterion 1", f"{len(pairs)} pairs exact in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: hand-enumerated grids, cell for cell, plus recount
# ---------------------------------------------------------------------------

def test_criterion_2_hand_grid_equivalence():
    for name, lines, alphabet_key, kwargs, expected in HAND_GRID_CASES:
        alphabet = HAND_ALPHABETS[alphabet_key]
        text = "\n".join(
            f"<p1.P.{i + 1}> {'.'.join(tokens)}" for i, tokens in enumerate(lines)
        )
        corpus = normalize(parse_transliteration(text), alphabet, min_graphemes=1)
        assert corpus.token_count() <= 20
        kwargs = dict(kwargs)
        distance = kwargs.pop("target_distance")
        grid = compute_grid(corpus, GridSpec(alphabet=alphabet, **kwargs), distance)
        got = {c: (gc.pair_count, gc.match_count) for c, gc in grid.cells.items()}
        assert got == expected, name
        recount = brute_force_grid_counts(
            corpus, alphabet, kwargs["max_line_offset"], kwargs["max_pos_offset"],
            distance, kwargs.get("drop_line_edges", False),
        )
        assert recount == expected, name
    _report("criterion 2", f"{len(HAND_GRID_CASES)} hand-enumerated grids match")


# ---------------------------------------------------------------------------
# criterion 3: published full-manuscript numbers (user-supplied transcription)
# ---------------------------------------------------------------------------

def test_criterion_3_grid_cells_and_runtime(vms_normalized):
    spec = GridSpec(alphabet=PROFILE.alphabet, max_line_offset=9, max_pos_offset=6)
    started = time.perf_counter()
    grid1 = compute_grid(vms_normalized, spec, 1)
    single_run = time.perf_counter() - started
    grids = compute_grids(vms_normalized, spec, (0, 2))
    checks = [
        ("d=0 (0,-1)", grids[0].proportion(0, -1) * 100, 0.96, 0.10),
        ("d=0 (1,0)", grids[0].proportion(1, 0) * 100, 0.99, 0.10),
        ("d=1 (0,-1)", grid1.proportion(0, -1) * 100, 2.82, 0.15),
        ("d=2 (0,-2)", grids[2].proportion(0, -2) * 100, 5.08, 0.20),
    ]
    for label, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{label}: {got:.3f} vs {want} ±{tol}"
    assert single_run < 10.0, f"single-distance grid took {single_run:.1f}s"
    summary = ", ".join(f"{l}={g:.2f}%" for l, g, _, _ in checks)
    _report("criterion 3 (grids)", f"{summary}; d=1 run {single_run:.1f}s")


def test_criterion_3_type_counts(vms_normalized):
    table = TypeTable.from_corpus(vms_normalized)
    counts = dict(zip(table.words, table.counts))
    expected = {"chor": 219, "ytchor": 13, "qotchor": 14, "chan": 11, "chon": 1}
    for word, count in expected.items():
        assert word in counts, f"type {word!r} absent"
        assert counts[word] == count, f"{word}: {counts[word]} vs {count}"
    _report("criterion 3 (types)", str(expected))


def test_criterion_3_positional_stats(vms_normalized):
    report = positional_stats(
        vms_normalized, PROFILE.gallows, PROFILE.prefixes,
        PROFILE.line_final_glyphs,
    )
    checks = [
        ("gallows", report.paragraph_initial_gallows_rate.value, 0.86, 0.04),
        ("line-initial prefix", report.line_initial_prefix_rate.value, 0.68, 0.05),
        ("internal prefix", report.line_internal_prefix_rate.value, 0.50, 0.05),
        ("line-final m", report.line_final_rates["m"].value, 0.62, 0.05),
        ("second shorter", report.second_shorter_rate.value, 0.48, 0.05),
        ("second longer", report.second_longer_rate.value, 0.32, 0.05),
    ]
    for label, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{label}: {got:.3f} vs {want} ±{tol}"
    _report("criterion 3 (positions)",
            ", ".join(f"{l}={g:.2f}" for l, g, _, _ in checks))


def test_criterion_3_network(vms_normalized):
    table = TypeTable.from_corpus(vms_normalized)
    graph = build_graph(table, PROFILE.alphabet, min_freq=4)
    assert "chan" in graph.nodes
    assert "chon" not in graph.nodes
    lengths = {}
    for target in ("ol", "chedy"):
        path = shortest_path(graph, "daiin", target)
        assert path is not None, f"no path daiin..{target}"
        lengths[target] = len(path) - 1
    # a 7-node witness chain exists, so BFS cannot need more than 6 edges
    assert lengths["ol"] <= 6
    coverage = degree_coverage(build_graph(table, PROFILE.alphabet, min_freq=5))
    assert coverage >= 0.90, f"degree coverage {coverage:.3f}"
    _report("criterion 3 (network)",
            f"path lengths {lengths}; coverage={coverage:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: proportions decay with line distance on the manuscript
# ---------------------------------------------------------------------------

def test_criterion_4_decay(vms_normalized):
    spec = GridSpec(alphabet=PROFILE.alphabet, max_line_offset=9, max_pos_offset=6)
    grids = compute_grids(vms_normalized, spec, (0, 1, 2))
    for d, grid in grids.items():
        _, decays = summarize_decay(grid)
        assert decays, f"no decay at d={d}"
    _report("criterion 4", "rows n-1..n-3 exceed n-7..n-9 for d=0,1,2")


# ---------------------------------------------------------------------------
# criterion 5: null models
# ---------------------------------------------------------------------------

def test_criterion_5_shuffle_flattens_generated(generated_corpora):
    corpus = generated_corpora[1]
    failures = 0
    for seed in range(5):
        shuffled = shuffle_control(corpus, seed)
        report = validate_signature(shuffled, PROFILE.alphabet)
        failures += not report.row_decay_ok
    assert failures >= 4, f"only {failures}/5 shuffles lost the decay"
    _report("criterion 5 (shuffle)", f"row decay broken in {failures}/5 shuffles")


def test_criterion_5_natural_text_contrast():
    text = (DATA_DIR / "english_prose.txt").read_text(encoding="utf-8")
    corpus = parse_plaintext(text)
    alphabet = Alphabet.single_characters(
        {c for t in corpus.iter_tokens() for c in t.raw}
    )
    norm = normalize(corpus, alphabet, min_graphemes=1)
    grid = compute_grid(norm, GridSpec(alphabet=alphabet, max_line_offset=9,
                                       max_pos_offset=5))
    adjacent = grid.proportion(0, -1)
    row1 = grid.row_mean(1)
    assert row1 > 0
    assert adjacent < 0.1 * row1, f"adjacent={adjacent} row1={row1}"
    _report("criterion 5 (natural)",
            f"adjacent repeat {adjacent:.4f} vs row n-1 mean {row1:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: generator signature
# ---------------------------------------------------------------------------

def test_criterion_6_generator_signature(generated_corpora):
    good = 0
    lifts = []
    for seed, corpus in generated_corpora.items():
        assert corpus.token_count() == 10_000
        report = validate_signature(corpus, PROFILE.alphabet)
        lifts.append(report.adjacency_lift)
        good += report.row_decay_ok and report.adjacency_lift >= 1.5
    assert good >= 4, f"signature held in only {good}/5 seeds"
    params = GeneratorParams.defaults().replace(rng_seed=1)
    again = generate(params, PROFILE.alphabet)
    assert format_transliteration(again).encode() == format_transliteration(
        generated_corpora[1]
    ).encode()
    _report("criterion 6",
            f"signature in {good}/5 seeds, lifts "
            + ",".join(f"{l:.2f}" for l in lifts) + "; regeneration byte-identical")


# ---------------------------------------------------------------------------
# criterion 7: manifests re-execute byte-identically
# ---------------------------------------------------------------------------

def test_criterion_7_manifest_determinism(tmp_path):
    from selfcite.cli import main

    toy = tmp_path / "toy.txt"
    toy.write_text(
        "<f1r.P.1> kchedy.chol.daiin\n<f1r.P.2> daiin.ol.chedy\n"
        "<f1r.P.3> ychedy.chedy.dal\n\n<f1r.P.4> tol.chol.dar\n",
        encoding="utf-8",
    )
    runs = [
        ["grid", "--input", str(toy), "--distance", "1", "--rows", "2",
         "--cols", "2", "--out", str(tmp_path / "grid.csv")],
        ["stats", "--input", str(toy), "--out", str(tmp_path / "stats.jsonl")],
        ["network", "--input", str(toy), "--min-freq", "1",
         "--out", str(tmp_path / "edges.csv")],
        ["generate", "--tokens", "300", "--seed", "5",
         "--out", str(tmp_path / "gen.txt")],
    ]
    verified = 0
    for argv in runs:
        assert main(argv) == 0
        out = Path(argv[argv.index("--out") + 1])
        manifest = out.with_name(out.name + ".manifest.json")
        rerun_dir = tmp_path / f"rerun_{out.stem}"
        assert main(["rerun", str(manifest), "--out-dir", str(rerun_dir)]) == 0
        assert (rerun_dir / out.name).read_bytes() == out.read_bytes()
        verified += 1
    _report("criterion 7", f"{verified} manifests re-executed byte-identically")
