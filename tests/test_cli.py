import errno
import json
import os
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
    for argv in (
        ["grid", "--input", str(toy_input), "--rows", "0"],
        ["grid", "--input", str(toy_input), "--cols", "0"],
        ["grid", "--input", str(toy_input), "--distance", "-1"],
        ["stats", "--input", str(toy_input), "--min-graphemes", "-1"],
        ["generate", "--tokens", "0"],
        ["network", "--input", str(toy_input), "--min-freq", "-5"],
        ["path", "--input", str(toy_input), "--min-freq", "0", "--from", "a", "--to", "b"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "must be at least" in capsys.readouterr().err


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
    assert "no lines match" in capsys.readouterr().err


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


# Runs in a fresh interpreter, so modules the test session imported do not
# count: every command but grid and validate must leave numpy unloaded.
NUMPY_FREE_SCRIPT = """
import sys
from selfcite import cli

assert "numpy" not in sys.modules, "import selfcite.cli loaded numpy"
toy, out = sys.argv[1:]
runs = [
    ["profile", "--profile", "vms", "--out", f"{out}/profile.json"],
    ["generate", "--tokens", "300", "--seed", "2", "--out", f"{out}/gen.evt"],
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
    assert "numpy" not in sys.modules, f"{argv[0]} loaded numpy"
assert cli.main(["grid", "--input", toy, "--rows", "3", "--cols", "2",
                 "--out", f"{out}/grid.csv"]) == 0
assert "numpy" in sys.modules, "grid did not load numpy"
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
