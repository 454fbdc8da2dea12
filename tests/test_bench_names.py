"""The traced benchmark looks names up in the package: keep them resolvable.

``bench/spans.py`` wraps functions by (module, attribute) and
``bench/props.py`` calls the public API directly. A rename that breaks
either shows up here instead of in a failed ``bench/run.py --trace 1``,
and so does a change that breaks them at run time: both run here on a small
generated book. The files under ``bench/`` are only read; every output goes
to a temporary directory.
"""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from selfcite import cli
from selfcite.network import TypeTable

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def _load(name: str) -> types.ModuleType:
    """Run ``bench/NAME.py`` as a module, without writing a bytecode cache."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), path, "exec"), module.__dict__)
    return module


def test_traced_names_resolve():
    spans = _load("spans")
    for module_name, attr, _ in spans.SPANS + spans.LEAVES:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (
            module_name, attr,
        )
    # install() rewraps the classmethod through its underlying function
    assert callable(TypeTable.from_corpus.__func__)
    # every gated per-layer span metric names a span the tracer can report
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for metric in declared:
        span, _, field = metric["name"].rpartition(".")
        if field in ("self_s", "calls"):
            assert span in spans.SPAN_NAMES, metric["name"]


def test_props_calls_bind():
    """Every call ``bench/props.py`` makes to a name it imports from selfcite
    (directly, or as ``Name.method``) binds to that callable's signature."""
    props = _load("props")
    tree = ast.parse((BENCH / "props.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "selfcite"
        for alias in node.names
    }
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name, target = func.id, getattr(props, func.id)
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in imported
        ):
            name = func.value.id
            target = getattr(getattr(props, name), func.attr)
        else:
            continue
        called.add(name)
        signature = inspect.signature(target)
        signature.bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
    # every imported name is called, so none can go unchecked
    assert called == imported


def _run_bench(script: str, *args: str, cwd: Path) -> None:
    """Run ``bench/SCRIPT.py`` in a child process, without bytecode caches."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, str(BENCH / f"{script}.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_props_and_spans_run_on_a_generated_book(tmp_path):
    assert cli.main(["generate", "--tokens", "3000", "--seed", "3",
                     "--out", str(tmp_path / "book.evt")]) == 0
    _run_bench("props", "props.json", "--input", "book.evt", "--grid", "--network",
               cwd=tmp_path)
    props = json.loads((tmp_path / "props.json").read_text())
    assert props["problems"] == []
    assert props["counts"]["cooccur.pair_instances"] > 0
    assert cli.main(["network", "--input", str(tmp_path / "book.evt"),
                     "--out", str(tmp_path / "edges.csv")]) == 0
    rows = (tmp_path / "edges.csv").read_text().splitlines()[1:]
    assert props["counts"]["network.edges"] == len(rows) > 0
    analyse = _load("spans").analyse
    for command in (["grid", "--input", "book.evt", "--distance", "1", "--out", "grid.csv"],
                    ["network", "--input", "book.evt", "--out", "traced.csv"]):
        _run_bench("spans", "spans.json", "--", *command, cwd=tmp_path)
        totals, problems = analyse(json.loads((tmp_path / "spans.json").read_text()))
        assert problems == [], command
    assert totals["network.TypeTable.from_corpus"]["calls"] == 1
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "edges.csv").read_bytes()
