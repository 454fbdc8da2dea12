import csv
import errno
import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from selfcite.cli import main
from selfcite.corpus import format_transliteration, parse_transliteration, read_text

TOY = """\
<f1r.P.1> kchedy.chol.daiin
<f1r.P.2> daiin.ol.chedy
<f1r.P.3> ychedy.chedy.dal

<f1r.P.4> tol.chol.dar
<f26r.P.1> pchor.dy.chol
<f26r.P.2> chol.chor.daiin
"""


@pytest.fixture
def toy_input(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text(TOY, encoding="utf-8")
    return path


def test_no_arguments_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(toy_input, capsys):
    for subcommand, *flags in (
        ("grid", "--no-such-flag"),
        ("grid", "--threads", "2"),
        ("validate", "--threads", "2"),
        ("network", "--strategy", "buckets"),
        # a flag that cannot apply to the input kind
        ("parse", "--kind", "plaintext", "--units", "P"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([subcommand, "--input", str(toy_input), *flags])
        assert exc.value.code == 2, flags
        err = capsys.readouterr().err
        assert sum("error:" in line for line in err.splitlines()) == 1, err


def test_out_of_range_values_are_usage_errors(toy_input, capsys):
    for argv, message in (
        (["grid", "--input", str(toy_input), "--rows", "0"], "must be at least 1"),
        (["grid", "--input", str(toy_input), "--cols", "0"], "must be at least 1"),
        (["grid", "--input", str(toy_input), "--rows", "1001"], "must be at most 1000"),
        (["grid", "--input", str(toy_input), "--cols", "100000"], "must be at most 1000"),
        (["grid", "--input", str(toy_input), "--distance", "-1"], "must be at least 0"),
        (["stats", "--input", str(toy_input), "--min-graphemes", "-1"], "must be at least 0"),
        (["generate", "--tokens", "0"], "must be at least 1"),
        (["network", "--input", str(toy_input), "--min-freq", "-5"], "must be at least 1"),
        (["path", "--input", str(toy_input), "--min-freq", "0", "--from", "a", "--to", "b"],
         "must be at least 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        err = capsys.readouterr().err
        assert message in err, argv
        assert sum("error:" in line for line in err.splitlines()) == 1, err


def test_missing_file_is_data_error(capsys):
    code = main(["stats", "--input", "/nonexistent/corpus.txt"])
    assert code == 1
    assert "/nonexistent/corpus.txt" in capsys.readouterr().err


def test_malformed_corpus_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    for text, named in (
        ("<f1r.P.1> daiin\noops\n", "'oops'"),
        ("<f1r.P.1> daiin\n<f1r.P.0> chedy\n", "'<f1r.P.0>'"),
    ):
        bad.write_text(text, encoding="utf-8")
        code = main(["stats", "--input", str(bad)])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and named in err, err


@pytest.mark.parametrize("text, argv, cutoff", [
    ("# only a comment\n", ["parse"], False),
    ("... !!! ,,,\n-- ;\n", ["parse", "--kind", "plaintext"], False),
    ("<f1r.P.1> a.o.y\n", ["stats"], True),
    ("<f1r.P.1> a.o.y\n", ["grid"], True),
    ("<f1r.P.1> a.o.y\n", ["validate"], True),
], ids=["comment_only", "punctuation_only", "stats_cutoff", "grid_cutoff",
        "validate_cutoff"])
def test_empty_corpus_names_the_input(text, argv, cutoff, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    assert main(argv + ["--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.rstrip("\n")], err
    assert err.startswith(f"error: --input {path}: empty corpus"), err
    assert ("no token has at least 2 graphemes" in err) == cutoff, err


def test_validate_floor_names_the_input_and_count(tmp_path, capsys):
    # "ol" has two graphemes, so --min-graphemes 3 keeps 20 of the 30 tokens
    path = tmp_path / "small.evt"
    path.write_text("".join(f"<f1r.P.{n}> daiin.chedy.ol\n" for n in range(1, 11)),
                    encoding="utf-8")
    out = tmp_path / "report.json"
    argv = ["validate", "--input", str(path), "--min-graphemes", "3", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: --input {path}: corpus too small: 20 tokens of at least 3 "
        "graphemes, need 2000\n"
    )
    assert not out.exists()


def test_input_encoding(tmp_path, capsys):
    bom = tmp_path / "bom.txt"
    bom.write_bytes(b"\xef\xbb\xbf" + TOY.encode("utf-8"))
    assert main(["parse", "--input", str(bom)]) == 0
    assert capsys.readouterr().out.startswith("<f1r.P.1> kchedy.chol.daiin\n")
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"<f1r.P.1> da\xefiin\n")
    assert main(["parse", "--input", str(latin1)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {latin1}: not UTF-8 (byte 0xef at offset 12)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["profile", "--profile"],
    ["generate", "--tokens", "5", "--params"],
], ids=["profile", "params"])
def test_settings_file_errors_name_the_file(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"name": "x\xff"}')
    assert main(argv + [str(bad)]) == 1
    err = capsys.readouterr().err
    assert f"cannot read {bad}: not UTF-8 (byte 0xff at offset 11)" in err
    # a missing file or a directory is a data error too, not a traceback
    for path in (tmp_path / "missing.json", tmp_path):
        assert main(argv + [str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err


@pytest.mark.parametrize("content, named", [
    ('{"copy_probability": "x"}', "copy_probability"),
    ('{"line_length_distribution": [1, 2]}', "line_length_distribution"),
    ("[1, 2]", "expected a JSON object"),
    ('{"line_length_distribution": [[7.5, 1.0]]}', "line_length_distribution"),
], ids=["string_probability", "bare_numbers", "list", "fractional_length"])
def test_params_file_with_wrong_types_is_data_error(content, named, tmp_path,
                                                    capsys):
    params = tmp_path / "params.json"
    params.write_text(content, encoding="utf-8")
    assert main(["generate", "--tokens", "5", "--params", str(params)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed generator parameters {params}: ")
    assert named in captured.err
    assert "Traceback" not in captured.err


WORDS = ("daiin", "chol", "chedy", "ol", "qokeedy")


@st.composite
def decorated_transliteration(draw):
    """A clean transliteration and the same text as bytes with CRLF line
    ends, a byte-order mark, comment lines and extra blank lines mixed in."""
    paragraphs = draw(st.lists(
        st.lists(st.lists(st.sampled_from(WORDS), min_size=1, max_size=4),
                 min_size=1, max_size=3),
        min_size=1, max_size=4,
    ))
    clean: list[str] = []
    decorated = [""] * draw(st.integers(0, 2))
    line_no = 0
    for p, paragraph in enumerate(paragraphs):
        if p:
            clean.append("")
            decorated += draw(st.lists(st.sampled_from(["", " ", "\t"]),
                                       min_size=1, max_size=3))
        for tokens in paragraph:
            line_no += 1
            if draw(st.booleans()):
                decorated.append("# comment <f9v.P.1> not a line")
            line = f"<f1r.P.{line_no}> {'.'.join(tokens)}"
            clean.append(line)
            decorated.append(line)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    raw = (bom + newline.join(decorated) + newline).encode("utf-8")
    return "\n".join(clean) + "\n", raw


@given(decorated_transliteration())
@settings(max_examples=60, deadline=None)
def test_parse_format_parse_round_trip(case):
    clean, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(raw)
        parsed = parse_transliteration(read_text(str(path)))
    assert parsed == parse_transliteration(clean)
    assert parse_transliteration(format_transliteration(parsed)) == parsed


def test_parse_roundtrip(toy_input, tmp_path, capsys):
    out = tmp_path / "parsed.txt"
    assert main(["parse", "--input", str(toy_input), "--out", str(out)]) == 0
    assert "daiin.ol.chedy" in out.read_text()


def test_stats_json_lines(toy_input, capsys):
    assert main(["stats", "--input", str(toy_input)]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    names = {entry["statistic"] for entry in lines}
    assert "paragraph_initial_gallows_rate" in names
    assert "line_final_rate[m]" in names
    assert all("total" in entry for entry in lines)


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not valid JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_stats_without_sample_writes_null(tmp_path, capsys):
    one_line = tmp_path / "one.evt"
    one_line.write_text("<f1r.P.1> daiin.ol\n", encoding="utf-8")
    assert main(["stats", "--input", str(one_line)]) == 0
    lines = [_strict_json(l) for l in capsys.readouterr().out.splitlines()]
    by_name = {entry["statistic"]: entry for entry in lines}
    assert by_name["internal_subgroup_rate"] == {
        "statistic": "internal_subgroup_rate", "value": None, "hits": 0, "total": 0,
    }
    assert main(["stats", "--input", str(one_line), "--format", "markdown"]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[:2] == ["| statistic | value | sample |", "|---|---|---|"]
    assert "| internal_subgroup_rate | n/a | 0 |" in table
    assert "| mean_token_length_overall | 3.5000 | 2 |" in table


def _unique_words(count: int) -> list[str]:
    letters = "dainolrsyekt"
    return ["".join(w) for w in itertools.islice(
        itertools.product(letters, repeat=3), count)]


@pytest.mark.parametrize("lines", [
    # every line repeats its own words: the deepest row never matches
    [f"{w}.{w}" for w in _unique_words(1000)],
    # five long lines: the deepest row has no pair at all
    [".".join(_unique_words(420)) for _ in range(5)],
], ids=["infinite_lift", "undefined_lift"])
def test_validate_writes_strict_json(lines, tmp_path):
    corpus = tmp_path / "corpus.evt"
    corpus.write_text(
        "".join(f"<f1r.P.{n}> {line}\n" for n, line in enumerate(lines, 1)),
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    assert main(["validate", "--input", str(corpus), "--out", str(out)]) == 0
    report = _strict_json(out.read_text())
    assert report["adjacency_lift"] is None
    _strict_json((tmp_path / "report.json.manifest.json").read_text())


def test_stats_rank_frequency_output(toy_input, tmp_path):
    ranks = tmp_path / "ranks.csv"
    out = tmp_path / "stats.jsonl"
    assert main([
        "stats", "--input", str(toy_input), "--out", str(out),
        "--rank-frequency-out", str(ranks),
    ]) == 0
    lines = ranks.read_text().splitlines()
    assert lines[0] == "rank,type,count"
    assert lines[1].startswith("1,chol,4")
    manifest = json.loads((tmp_path / "stats.jsonl.manifest.json").read_text())
    assert len(manifest["outputs"]) == 2


def test_grid_csv_with_manifest(toy_input, tmp_path):
    out = tmp_path / "grid.csv"
    assert main([
        "grid", "--input", str(toy_input), "--distance", "0",
        "--rows", "3", "--cols", "2", "--out", str(out),
    ]) == 0
    content = out.read_text()
    assert content.splitlines()[0] == ",m-2,m-1,m,m+1,m+2"
    manifest_path = tmp_path / "grid.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == "grid"
    assert manifest["outputs"][0]["path"] == str(out)
    assert manifest["inputs"][0]["path"] == str(toy_input)
    assert len(manifest["params"]["profile_digest"]) == 64


def test_grid_svg_and_markdown(toy_input, tmp_path):
    for fmt, needle in (("svg", "<svg"), ("markdown", "| n |")):
        out = tmp_path / f"grid.{fmt}"
        assert main([
            "grid", "--input", str(toy_input), "--format", fmt,
            "--rows", "2", "--cols", "2", "--out", str(out),
        ]) == 0
        assert needle in out.read_text()


def test_grid_distance_three_warns_but_runs(toy_input, tmp_path):
    out = tmp_path / "grid.csv"
    with pytest.warns(UserWarning, match="beyond the published"):
        code = main([
            "grid", "--input", str(toy_input), "--distance", "3",
            "--rows", "2", "--cols", "2", "--out", str(out),
        ])
    assert code == 0
    assert out.exists()


def test_pages_filter(toy_input, tmp_path, capsys):
    pages = tmp_path / "pages.txt"
    pages.write_text("f26r\n", encoding="utf-8")
    assert main(["parse", "--input", str(toy_input),
                 "--pages", str(pages)]) == 0
    output = capsys.readouterr().out
    assert "<f26r.P.1>" in output
    assert "<f1r.P.1>" not in output


def test_pages_no_match_is_data_error(toy_input, tmp_path, capsys):
    pages = tmp_path / "pages.txt"
    pages.write_text("f99v\n", encoding="utf-8")
    assert main(["parse", "--input", str(toy_input),
                 "--pages", str(pages)]) == 1
    err = capsys.readouterr().err
    assert "no lines match" in err
    assert f"--input {toy_input}" in err and f"--pages {pages}" in err


def test_network_edges_csv(toy_input, tmp_path):
    out = tmp_path / "edges.csv"
    assert main([
        "network", "--input", str(toy_input), "--min-freq", "1",
        "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "type_a,type_b,operation"
    assert "chedy,ychedy,indel y @0" in lines
    assert "chedy,kchedy,indel k @0" in lines


def test_csv_outputs_quote_words_with_commas(tmp_path):
    prose = tmp_path / "prose.txt"
    prose.write_text(
        "the cost was 1,000 then 1,00 and 1,000\nyes 1,000 and 1,00\n",
        encoding="utf-8",
    )
    ranks, edges = tmp_path / "ranks.csv", tmp_path / "edges.csv"
    options = ["--input", str(prose), "--kind", "plaintext", "--profile", "chars",
               "--min-graphemes", "1"]
    assert main(["stats", *options, "--rank-frequency-out", str(ranks),
                 "--out", str(tmp_path / "stats.jsonl")]) == 0
    assert main(["network", *options, "--min-freq", "2", "--out", str(edges)]) == 0
    with open(ranks, newline="", encoding="utf-8") as f:
        rank_rows = list(csv.reader(f))
    with open(edges, newline="", encoding="utf-8") as f:
        edge_rows = list(csv.reader(f))
    assert {len(row) for row in rank_rows} == {3}
    assert ["1", "1,000", "3"] in rank_rows
    assert {len(row) for row in edge_rows} == {3}
    assert ["1,00", "1,000", "indel 0 @2"] in edge_rows


def test_path_subcommand(toy_input, capsys):
    assert main([
        "path", "--input", str(toy_input), "--min-freq", "1",
        "--from", "ychedy", "--to", "kchedy",
    ]) == 0
    assert "ychedy -> chedy -> kchedy" in capsys.readouterr().out


def test_path_without_connection_is_data_error(toy_input, capsys):
    assert main([
        "path", "--input", str(toy_input), "--min-freq", "1",
        "--from", "ychedy", "--to", "daiin",
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no path from 'ychedy' to 'daiin'" in captured.err


def test_out_into_missing_directory_is_data_error(toy_input, tmp_path, capsys):
    missing = tmp_path / "no_such_dir" / "x.csv"
    for argv in (
        ["grid", "--out", str(missing)],
        ["stats", "--rank-frequency-out", str(missing)],
    ):
        assert main([*argv, "--input", str(toy_input)]) == 1
        err = capsys.readouterr().err
        assert f"cannot write {missing}" in err
        assert "Traceback" not in err


def test_failed_write_keeps_previous_output(toy_input, tmp_path, capsys,
                                           monkeypatch):
    out = tmp_path / "grid.csv"
    out.write_bytes(b"previous\n")

    def no_space(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("selfcite.cli.os.replace", no_space)
    assert main(["grid", "--input", str(toy_input), "--out", str(out)]) == 1
    assert out.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["grid.csv", "toy.txt"]
    assert f"cannot write {out}: No space left on device" in capsys.readouterr().err


def test_generate_validate_pipeline(tmp_path):
    out = tmp_path / "gen.txt"
    assert main(["generate", "--tokens", "2500", "--seed", "3",
                 "--out", str(out)]) == 0
    report_path = tmp_path / "report.json"
    assert main(["validate", "--input", str(out),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["row_decay_ok"] is True
    assert report["token_count"] == 2500


def test_generate_deterministic_for_seed(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for out in (a, b):
        assert main(["generate", "--tokens", "400", "--seed", "11",
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_shuffle_preserves_tokens(toy_input, tmp_path):
    from collections import Counter

    from selfcite.corpus import parse_transliteration

    out = tmp_path / "shuffled.txt"
    assert main(["shuffle", "--input", str(toy_input), "--seed", "4",
                 "--out", str(out)]) == 0
    original = parse_transliteration(TOY)
    shuffled = parse_transliteration(out.read_text())
    assert Counter(t.raw for t in shuffled.iter_tokens()) == Counter(
        t.raw for t in original.iter_tokens()
    )
    assert [len(l.tokens) for l in shuffled.lines] == [
        len(l.tokens) for l in original.lines
    ]


def test_profile_subcommand(capsys):
    assert main(["profile", "--profile", "vms"]) == 0
    described = json.loads(capsys.readouterr().out)
    assert described["name"] == "vms"
    assert ["a", "o"] in described["similarity_groups"]
    assert described["dissimilar_substitution_cost"] == 2


def test_malformed_profile_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"graphemes": "abc"}', encoding="utf-8")
    assert main(["profile", "--profile", str(bad)]) == 1
    assert "malformed profile" in capsys.readouterr().err


def test_rerun_reproduces_byte_identical(toy_input, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main([
        "grid", "--input", str(toy_input), "--distance", "1",
        "--rows", "3", "--cols", "2", "--out", str(out),
    ]) == 0
    rerun_dir = tmp_path / "rerun"
    assert main([
        "rerun", str(tmp_path / "grid.csv.manifest.json"),
        "--out-dir", str(rerun_dir),
    ]) == 0
    assert (rerun_dir / "grid.csv").read_bytes() == out.read_bytes()
    assert "OK" in capsys.readouterr().out


def test_plaintext_with_chars_profile(tmp_path):
    prose = tmp_path / "prose.txt"
    prose.write_text(
        "The cat sat on the mat.\nThe bat sat on the hat!\n\n"
        "A rat ate the cat's oat; the cat sat.\nThe mat was flat.\n",
        encoding="utf-8",
    )
    out = tmp_path / "grid.csv"
    assert main([
        "grid", "--input", str(prose), "--kind", "plaintext", "--profile",
        "chars", "--min-graphemes", "1", "--rows", "2", "--out", str(out),
    ]) == 0
    # the derived profile's own window: five positions each side
    assert out.read_text().splitlines()[0] == ",m-5,m-4,m-3,m-2,m-1,m,m+1,m+2,m+3,m+4,m+5"
    manifest = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert [e["path"] for e in manifest["inputs"]] == [str(prose)]
    assert manifest["params"]["kind"] == "plaintext"


CUSTOM_PROFILE = {
    "graphemes": ["ch", "a", "d", "e", "h", "i", "k", "l", "n", "o", "p", "r",
                  "t", "y"],
    "similarity_groups": [["a", "o"]],
    "similar_substitution_cost": 1,
    "dissimilar_substitution_cost": 2,
    "indel_cost": 1,
    "gallows": ["k", "p", "t"],
    "prefixes": ["y", "o", "d"],
    "line_final_glyphs": ["n"],
    "grid_pos_offset": 3,
}


def test_rerun_checks_a_custom_profile(toy_input, tmp_path, capsys):
    profile = tmp_path / "custom.json"
    profile.write_text(json.dumps(CUSTOM_PROFILE), encoding="utf-8")
    out = tmp_path / "grid.csv"
    assert main([
        "grid", "--input", str(toy_input), "--profile", str(profile),
        "--distance", "1", "--rows", "3", "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0] == ",m-3,m-2,m-1,m,m+1,m+2,m+3"
    manifest_path = tmp_path / "grid.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert [e["path"] for e in manifest["inputs"]] == [str(toy_input), str(profile)]
    rerun = ["rerun", str(manifest_path), "--out-dir", str(tmp_path / "rerun")]
    assert main(rerun) == 0
    assert (tmp_path / "rerun" / "grid.csv").read_bytes() == out.read_bytes()
    capsys.readouterr()
    profile.write_text(json.dumps({**CUSTOM_PROFILE, "grid_pos_offset": 2}),
                       encoding="utf-8")
    assert main(rerun) == 1
    assert f"manifest input changed: {profile}" in capsys.readouterr().err


def test_rerun_detects_changed_input(toy_input, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    main(["grid", "--input", str(toy_input), "--out", str(out)])
    toy_input.write_text(TOY + "<f26r.P.3> extra.words\n", encoding="utf-8")
    code = main([
        "rerun", str(tmp_path / "grid.csv.manifest.json"),
        "--out-dir", str(tmp_path / "rerun"),
    ])
    assert code == 1
    assert "changed" in capsys.readouterr().err


@pytest.mark.parametrize("inside", [False, True], ids=["from_origin", "from_inside"])
def test_rerun_resolves_paths_against_the_manifest(
    inside, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a").mkdir()
    assert main(["generate", "--tokens", "300", "--seed", "3", "--out", "a/g.evt"]) == 0
    assert main([
        "stats", "--input", "a/g.evt", "--rank-frequency-out", "a/ranks.csv",
        "--out", "a/s.json",
    ]) == 0
    manifest = json.loads((tmp_path / "a" / "s.json.manifest.json").read_text())
    assert [e["path"] for e in manifest["inputs"]] == ["g.evt"]
    assert [e["path"] for e in manifest["outputs"]] == ["s.json", "ranks.csv"]
    assert "g.evt" in manifest["argv"] and "a/g.evt" not in manifest["argv"]
    assert manifest["params"]["input"] == "g.evt"
    if inside:
        monkeypatch.chdir(tmp_path / "a")
        code = main(["rerun", "s.json.manifest.json", "--out-dir", "../o"])
    else:
        code = main(["rerun", "a/s.json.manifest.json", "--out-dir", "o"])
    assert code == 0, capsys.readouterr().err
    for name in ("s.json", "ranks.csv"):
        fresh = (tmp_path / "o" / name).read_bytes()
        assert fresh == (tmp_path / "a" / name).read_bytes()


def test_rerun_out_dir_under_a_file_is_data_error(toy_input, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["grid", "--input", str(toy_input), "--out", str(out)]) == 0
    blocked = tmp_path / "file"
    blocked.write_text("", encoding="utf-8")
    code = main(["rerun", str(tmp_path / "grid.csv.manifest.json"),
                 "--out-dir", str(blocked / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create --out-dir {blocked / 'sub'}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("manifest, out_dir, named", [
    ("o/p.evt.manifest.json", "o", "o/p.evt would overwrite the recorded output o/p.evt"),
    ("x/p.evt.manifest.json", "o", "o/p.evt would overwrite the recorded input x/../o/p.evt"),
    ("m/q.evt.manifest.json", "m",
     "m/q.evt.manifest.json would overwrite the manifest m/q.evt.manifest.json"),
], ids=["recorded_output", "recorded_input", "manifest"])
def test_rerun_over_its_originals_is_usage_error(
        manifest, out_dir, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("toy.evt").write_text(TOY, encoding="utf-8")
    for directory in ("o", "x", "m"):
        Path(directory).mkdir()
    assert main(["parse", "--input", "toy.evt", "--out", "o/p.evt"]) == 0
    assert main(["parse", "--input", "o/p.evt", "--out", "x/p.evt"]) == 0
    # absolute paths, so that a copy of the manifest still finds its files
    assert main(["parse", "--input", str(tmp_path / "toy.evt"),
                 "--out", str(tmp_path / "o" / "q.evt")]) == 0
    shutil.copy("o/q.evt.manifest.json", "m/q.evt.manifest.json")
    files = sorted(Path().rglob("*.*"))
    before = {path: (path.stat().st_ino, path.read_bytes()) for path in files}
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["rerun", manifest, "--out-dir", out_dir])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"selfcite: error: --out-dir {out_dir}: {named}"]
    assert sorted(Path().rglob("*.*")) == files
    assert {path: (path.stat().st_ino, path.read_bytes()) for path in files} == before
    assert main(["rerun", manifest, "--out-dir", f"{out_dir}/r"]) == 0
    assert capsys.readouterr().out.startswith(f"OK {out_dir}/r/")


@pytest.mark.parametrize("content", ["{}", "[1]"], ids=["no_fields", "list"])
def test_rerun_malformed_manifest_is_data_error(content, tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    manifest.write_text(content, encoding="utf-8")
    code = main(["rerun", str(manifest), "--out-dir", str(tmp_path / "rerun")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: malformed manifest {manifest}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "rerun").exists()


def test_rerun_of_a_rerun_manifest_is_data_error(tmp_path, monkeypatch, capsys):
    # a manifest whose argv reruns that manifest would recurse without end
    monkeypatch.chdir(tmp_path)
    Path("m.json").write_text(json.dumps({
        "argv": ["rerun", "m.json", "--out-dir", "d"], "inputs": [], "outputs": [],
    }), encoding="utf-8")
    code = main(["rerun", "m.json", "--out-dir", "d"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed manifest m.json: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["shuffle", "--input", "x.evt", "--out", "./x.evt"],
     "--out ./x.evt is the same file as the input x.evt"),
    (["stats", "--input", "x.evt", "--out", "s.jsonl", "--rank-frequency-out", "s.jsonl"],
     "--out s.jsonl is the same file as --rank-frequency-out s.jsonl"),
    (["stats", "--input", "x.evt", "--rank-frequency-out", "sub/../x.evt"],
     "--rank-frequency-out sub/../x.evt is the same file as the input x.evt"),
], ids=["out_is_input", "outputs_collide", "rank_out_is_input"])
def test_output_aliasing_an_input_or_output_is_usage_error(
        argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("sub").mkdir()
    Path("x.evt").write_text(TOY, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"selfcite: error: {named}"]
    assert Path("x.evt").read_text(encoding="utf-8") == TOY
    assert sorted(os.listdir()) == ["sub", "x.evt"]


# Runs in a fresh interpreter, so modules the test session imported do not
# count, and skips any module loaded before selfcite was (a site .pth may
# import one). Every command but grid and validate must leave numpy
# unloaded, and dataclasses and inspect with it (numpy imports inspect
# itself). Every command must leave hashlib and OpenSSL's _hashlib unloaded:
# grid and validate too, unless a bare ``import numpy`` loads them here.
NUMPY_FREE_SCRIPT = """
import subprocess
import sys

preloaded = set(sys.modules)
from selfcite import cli

HASHLIB = [name for name in ("hashlib", "_hashlib") if name not in preloaded]
SKIPPED = [name for name in ("numpy", "dataclasses", "inspect") if name not in preloaded]
SKIPPED += HASHLIB
for name in SKIPPED:
    assert name not in sys.modules, f"import selfcite.cli loaded {name}"
toy, out = sys.argv[1:]
runs = [
    ["profile", "--profile", "vms", "--out", f"{out}/profile.json"],
    ["generate", "--tokens", "2500", "--seed", "2", "--out", f"{out}/gen.evt"],
    ["rerun", f"{out}/gen.evt.manifest.json", "--out-dir", f"{out}/rerun"],
    ["parse", "--input", toy, "--out", f"{out}/parsed.evt"],
    ["network", "--input", toy, "--min-freq", "1", "--out", f"{out}/edges.csv"],
    ["stats", "--input", toy, "--rank-frequency-out", f"{out}/ranks.csv",
     "--out", f"{out}/stats.jsonl"],
    ["shuffle", "--input", toy, "--seed", "1", "--out", f"{out}/shuffled.evt"],
    ["path", "--input", toy, "--min-freq", "1", "--from", "ychedy",
     "--to", "kchedy", "--out", f"{out}/path.txt"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
    for name in SKIPPED:
        assert name not in sys.modules, f"{argv[0]} loaded {name}"
bare_numpy = subprocess.run(
    [sys.executable, "-c", "import sys, numpy; print(*sys.modules)"],
    capture_output=True, text=True, check=True,
).stdout.split()
numpy_runs = [
    ["grid", "--input", toy, "--rows", "3", "--cols", "2", "--out", f"{out}/grid.csv"],
    ["validate", "--input", f"{out}/gen.evt", "--out", f"{out}/validate.json"],
]
for argv in numpy_runs:
    assert cli.main(argv) == 0, argv
    assert "numpy" in sys.modules, f"{argv[0]} did not load numpy"
    for name in HASHLIB:
        assert name not in sys.modules or name in bare_numpy, f"{argv[0]} loaded {name}"
print("checked")
"""


def test_only_grid_commands_load_numpy(toy_input, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_FREE_SCRIPT, str(toy_input), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "checked"


# Runs profile and parse, whose manifests record digests of inputs, outputs
# and profiles, with CPython's own SHA-256 modules hidden when asked, so
# that the digests come from hashlib's fallback.
DIGEST_SCRIPT = """
import sys

hide, toy, profile, out = sys.argv[1:]
if hide == "hide":
    sys.modules["_sha2"] = sys.modules["_sha256"] = None
import hashlib
from selfcite import cli, corpus

assert hide != "hide" or corpus._sha256 is hashlib.sha256
assert cli.main(["profile", "--profile", profile, "--out", f"{out}/profile.json"]) == 0
assert cli.main(["parse", "--input", toy, "--profile", "chars",
                 "--out", f"{out}/parsed.evt"]) == 0
print("checked")
"""


def test_digests_without_the_builtin_sha256(toy_input, tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    profile = tmp_path / "custom.json"
    profile.write_text(json.dumps(CUSTOM_PROFILE), encoding="utf-8")
    manifests = {}
    for hide in ("builtin", "hide"):
        out = tmp_path / hide
        out.mkdir()
        result = subprocess.run(
            [sys.executable, "-c", DIGEST_SCRIPT, hide, str(toy_input), str(profile), "."],
            cwd=out, env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "checked"
        manifests[hide] = [
            json.loads((out / f"{name}.manifest.json").read_text(encoding="utf-8"))
            for name in ("profile.json", "parsed.evt")
        ]
    assert manifests["hide"] == manifests["builtin"]
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    profile_run, parse_run = manifests["hide"]
    assert profile_run["params"]["profile_digest"] == digest(profile)
    assert profile_run["inputs"] == [{"path": str(profile), "sha256": digest(profile)}]
    assert parse_run["inputs"] == [{"path": str(toy_input), "sha256": digest(toy_input)}]
    parsed = tmp_path / "hide" / "parsed.evt"
    assert parse_run["outputs"] == [{"path": "parsed.evt", "sha256": digest(parsed)}]


@pytest.mark.parametrize("user_value", [None, "4"], ids=["unset", "user_set"])
def test_cli_defaults_openblas_to_one_thread(user_value, monkeypatch, capsys):
    # set first, so that monkeypatch restores the variable's prior state
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", user_value or "unset")
    if user_value is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    assert main(["profile", "--profile", "vms"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == (user_value or "1")
