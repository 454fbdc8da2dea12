"""Command-line interface.

Every run that writes an output file also writes a ``.manifest.json``
sidecar recording the tool version, the argument vector, and SHA-256
digests of inputs and outputs; ``selfcite rerun`` re-executes a manifest
into a fresh directory and verifies the outputs are byte-identical.

Exit codes: 0 success, 1 data error (message names the offending file or
value), 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import warnings
from pathlib import Path

import selfcite
from selfcite.corpus import (
    EmptyCorpusError,
    csv_bytes,
    filter_pages,
    format_transliteration,
    normalize,
    parse_plaintext,
    parse_transliteration,
    read_text,
    sha256_hex,
)
from selfcite.cooccur import MAX_OFFSET, GridSpec, compute_grid, render_grid
from selfcite.generator import (
    GeneratorParams,
    generate,
    shuffle_control,
    validate_signature,
)
from selfcite.network import TypeTable, build_graph, edge_operation, shortest_path
from selfcite.posstats import positional_stats, rank_frequency
from selfcite.profiles import BUILTIN_PROFILES, Profile, load_profile, profile_from_corpus

RNG_ALGORITHM = "python-random-mt19937"


class UsageError(Exception):
    """Arguments that parse but cannot run together; exits 2 as argparse's
    own usage errors do."""


def _json(value, **options) -> str:
    """``value`` as strict JSON, with each non-finite float (a rate with no
    sample, an unbounded ratio) written as null."""
    finite = json.loads(json.dumps(value), parse_constant=lambda _: None)
    return json.dumps(finite, allow_nan=False, **options)


def _sha256(path: Path) -> str:
    return sha256_hex(path.read_bytes())


def _write_bytes(path: Path, data: bytes) -> None:
    """Write through a temp file in the same directory, then rename it over
    ``path``, so a failed write leaves no partial file and any previous one
    intact. Devices and pipes (e.g. ``/dev/null``) are written in place."""
    staged = None
    try:
        if path.exists() and not path.is_file():
            path.write_bytes(data)
        else:
            staged = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            staged.write_bytes(data)
            os.replace(staged, path)
    except OSError as exc:
        if staged is not None:
            with contextlib.suppress(OSError):
                staged.unlink(missing_ok=True)
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _load_pageset(path: str) -> set[str]:
    pages = set()
    for line in read_text(path).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            pages.add(line)
    if not pages:
        raise ValueError(f"page set {path} is empty")
    return pages


def _load_corpus(args) -> tuple[object, Profile]:
    """Parse the input file and resolve the profile for it."""
    text = read_text(args.input)
    if args.kind == "plaintext":
        corpus = parse_plaintext(text)
    else:
        units = frozenset(args.units.split(",")) if args.units else None
        corpus = parse_transliteration(text, units)
    if args.profile == "chars":
        profile = profile_from_corpus(corpus)
    else:
        profile = load_profile(args.profile)
    args.profile_digest = profile.digest
    if args.pages:
        try:
            corpus = filter_pages(corpus, _load_pageset(args.pages))
        except EmptyCorpusError:  # _run() adds the --input path
            raise EmptyCorpusError(f"no lines match --pages {args.pages}") from None
    return corpus, profile


# The options that name files, by dest, under the manifest list that records
# them; ``--profile`` names one unless it is a builtin name or 'chars'. Only
# these are recorded relative to the manifest, and replaced by ``rerun``.
PATH_DESTS = {
    "inputs": ("input", "params_file", "pages", "profile"),
    "outputs": ("out", "rank_frequency_out"),
}


def _paths(args, dests) -> dict[str, str]:
    """The options of ``args`` among ``dests`` that name a file, by dest."""
    values = {dest: getattr(args, dest, None) for dest in dests}
    return {dest: value for dest, value in values.items()
            if value and not (dest == "profile" and value in (*BUILTIN_PROFILES, "chars"))}


def _write_output(args, data: bytes, extra_params: dict | None = None) -> None:
    out = Path(args.out)
    _write_bytes(out, data)
    params = {k: v for k, v in vars(args).items() if k not in ("func", "argv")}
    params.update(extra_params or {})
    manifest = {
        "tool": "selfcite",
        "version": selfcite.__version__,
        "subcommand": args.subcommand,
        "argv": args.argv,
        "params": params,
    }
    for key, dests in PATH_DESTS.items():
        manifest[key] = []
        for dest, path in _paths(args, dests).items():
            if not os.path.isabs(path):
                params[dest] = os.path.relpath(path, out.parent)
            manifest[key].append({"path": params[dest], "sha256": _sha256(Path(path))})
    text = _json(manifest, indent=2, sort_keys=True) + "\n"
    _write_bytes(out.with_name(out.name + ".manifest.json"), text.encode("utf-8"))


def _unrunnable(args) -> str | None:
    """Why parsed arguments cannot run together, or None: ``--units`` with
    plaintext input, or an output path that, once resolved, names an input
    or an earlier output of the same run. Outputs are checked in the order
    they are written: ``PATH_DESTS``' reversed, then the manifest."""
    if getattr(args, "kind", None) == "plaintext" and args.units is not None:
        return "--units applies to transliterations only"
    inputs, outputs = _paths(args, PATH_DESTS["inputs"]), _paths(args, PATH_DESTS["outputs"])
    seen = {os.path.realpath(path): f"the input {path}" for path in inputs.values()}
    named = [(f"--{dest.replace('_', '-')}", path) for dest, path in reversed(outputs.items())]
    if "out" in outputs:
        named.append(("the manifest", outputs["out"] + ".manifest.json"))
    for flag, path in named:
        real = os.path.realpath(path)
        if real in seen:
            return f"{flag} {path} is the same file as {seen[real]}"
        seen[real] = f"{flag} {path}"
    return None


def _emit(args, data: bytes, extra_params: dict | None = None) -> None:
    """Write to ``--out`` with a manifest, or to stdout when it is unset."""
    if args.out:
        _write_output(args, data, extra_params)
    else:
        sys.stdout.write(data.decode("utf-8"))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    corpus, profile = _load_corpus(args)
    if args.min_graphemes > 0:
        corpus = normalize(corpus, profile.alphabet, args.min_graphemes)
    _emit(args, format_transliteration(corpus).encode("utf-8"))
    return 0


def _cmd_stats(args) -> int:
    corpus, profile = _load_corpus(args)
    corpus = normalize(corpus, profile.alphabet, args.min_graphemes)
    report = positional_stats(
        corpus, profile.gallows, profile.prefixes, profile.line_final_glyphs,
        contiguous_subgroup=not args.subsequence_subgroup,
    )
    fields = report.as_dict()
    if args.format == "markdown":
        lines = ["| statistic | value | sample |", "|---|---|---|"]
        for name, info in fields.items():
            value = info["value"]
            shown = f"{value:.4f}" if value == value else "n/a"
            lines.append(f"| {name} | {shown} | {info['total']} |")
        data = ("\n".join(lines) + "\n").encode("utf-8")
    else:
        data = (
            "\n".join(_json({"statistic": k, **v}) for k, v in fields.items())
            + "\n"
        ).encode("utf-8")
    if args.rank_frequency_out:
        _write_bytes(
            Path(args.rank_frequency_out),
            csv_bytes([("rank", "type", "count"), *rank_frequency(corpus)]),
        )
    _emit(args, data)
    return 0


def _cmd_grid(args) -> int:
    corpus, profile = _load_corpus(args)
    corpus = normalize(corpus, profile.alphabet, args.min_graphemes)
    if args.distance > 2:
        warnings.warn(
            f"distance {args.distance} is beyond the published grids; "
            "computing it anyway", stacklevel=1,
        )
    cols = args.cols if args.cols is not None else profile.grid_pos_offset
    spec = GridSpec(
        alphabet=profile.alphabet,
        max_line_offset=args.rows,
        max_pos_offset=cols,
        drop_line_edges=args.drop_line_edges,
    )
    grid = compute_grid(corpus, spec, args.distance)
    _emit(args, render_grid(grid, args.format))
    return 0


def _load_graph(args):
    """The type table of the normalized corpus and its similarity graph."""
    corpus, profile = _load_corpus(args)
    table = TypeTable.from_corpus(normalize(corpus, profile.alphabet, args.min_graphemes))
    return table, build_graph(table, profile.alphabet, args.min_freq)


def _cmd_network(args) -> int:
    table, graph = _load_graph(args)
    graphemes = dict(zip(table.words, table.graphemes))
    rows = [(a, b, edge_operation(graphemes[a], graphemes[b])) for a, b in sorted(graph.edges())]
    _emit(args, csv_bytes([("type_a", "type_b", "operation"), *rows]))
    return 0


def _cmd_path(args) -> int:
    _, graph = _load_graph(args)
    source = getattr(args, "from")
    path = shortest_path(graph, source, args.to)
    if path is None:
        raise ValueError(f"no path from {source!r} to {args.to!r}")
    _emit(args, (" -> ".join(path) + "\n").encode("utf-8"))
    return 0


def _cmd_generate(args) -> int:
    params = GeneratorParams.from_file(args.params_file) if args.params_file else GeneratorParams()
    if args.tokens is not None:
        params = params._replace(target_token_count=args.tokens)
    if args.seed is not None:
        params = params._replace(rng_seed=args.seed)
    profile = load_profile(args.profile)
    args.profile_digest = profile.digest
    corpus = generate(params, profile.alphabet)
    data = format_transliteration(corpus).encode("utf-8")
    _emit(args, data, {"rng": RNG_ALGORITHM, "rng_seed": params.rng_seed})
    return 0


def _cmd_shuffle(args) -> int:
    corpus, _ = _load_corpus(args)
    shuffled = shuffle_control(corpus, args.seed)
    data = format_transliteration(shuffled).encode("utf-8")
    _emit(args, data, {"rng": RNG_ALGORITHM})
    return 0


def _cmd_validate(args) -> int:
    corpus, profile = _load_corpus(args)
    report = validate_signature(
        corpus, profile.alphabet, min_graphemes=args.min_graphemes
    )
    data = (_json(report.as_dict(), indent=2) + "\n").encode("utf-8")
    _emit(args, data)
    return 0


def _cmd_profile(args) -> int:
    profile = load_profile(args.profile)
    args.profile_digest = profile.digest
    data = (_json(profile.describe(), indent=2) + "\n").encode("utf-8")
    _emit(args, data)
    return 0


def _is_file_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(entry, dict)
        and isinstance(entry.get("path"), str)
        and isinstance(entry.get("sha256"), str)
        for entry in value
    )


def _load_manifest(path: str, parser) -> tuple[dict, argparse.Namespace]:
    """The manifest at ``path`` and its ``argv`` parsed, checked for all that
    ``rerun`` reads: each path option set has its path in ``params`` and a digest."""
    def malformed(problem) -> ValueError:
        return ValueError(f"malformed manifest {path}: {problem}")

    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise malformed(exc) from None
    if not isinstance(manifest, dict):
        raise malformed(f"expected a JSON object, got {type(manifest).__name__}")
    if not all(_is_file_list(manifest.get(key)) for key in ("inputs", "outputs")):
        raise malformed("'inputs' and 'outputs' must be lists of {path, sha256} objects")
    argv = manifest.get("argv")
    if not isinstance(argv, list) or not all(isinstance(token, str) for token in argv):
        raise malformed("'argv' must be a list of strings")
    printed = []  # argparse's help, version or error text, kept off the terminal
    sink = argparse.Namespace(write=printed.append)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            run = parser.parse_args(argv)
    except SystemExit as exc:
        problem = "".join(printed).rpartition("error: ")[2].strip()
        raise malformed(f"'argv' does not parse: {problem}" if exc.code else
                        "'argv' prints help or the version and runs nothing") from None
    params = manifest.get("params")
    if not isinstance(params, dict):
        raise malformed("'params' must be an object")
    if not getattr(run, "out", None):  # a rerun too, which would rerun without end
        raise malformed("'argv' writes no --out file to check")
    for key, dests in PATH_DESTS.items():
        for dest in _paths(run, dests):
            if params.get(dest) not in [entry["path"] for entry in manifest[key]]:
                raise malformed(f"params[{dest!r}] is not a path listed in {key!r}")
    return manifest, run


def _cmd_rerun(args) -> int:
    """Re-execute a manifest's argv with only its path options replaced. Its
    relative paths (the file lists and the path options in ``params``) are
    relative to its directory; inputs are read from there and outputs go to
    ``--out-dir``, which must not hold the manifest or the files it records."""
    parser = build_parser()
    manifest, run = _load_manifest(args.manifest, parser)
    base = Path(args.manifest).parent
    originals = {os.path.realpath(args.manifest): f"the manifest {args.manifest}"}
    for entry in manifest["inputs"]:
        path = base / entry["path"]
        if not path.exists():
            raise ValueError(f"manifest input missing: {path}")
        if _sha256(path) != entry["sha256"]:
            raise ValueError(f"manifest input changed: {path}")
        originals[os.path.realpath(path)] = f"the recorded input {path}"
    for entry in manifest["outputs"]:
        path = base / entry["path"]
        originals[os.path.realpath(path)] = f"the recorded output {path}"
    out_dir = Path(args.out_dir)
    replaced = []
    for expected in manifest["outputs"]:
        fresh = out_dir / Path(expected["path"]).name
        for path in (fresh, fresh.with_name(fresh.name + ".manifest.json")):
            if clash := originals.get(os.path.realpath(path)):
                raise UsageError(f"--out-dir {out_dir}: {path} would overwrite {clash}")
        replaced.append((fresh, expected["sha256"]))
    params = manifest["params"]
    for dest in _paths(run, PATH_DESTS["inputs"]):
        setattr(run, dest, str(base / params[dest]))
    for dest in _paths(run, PATH_DESTS["outputs"]):
        setattr(run, dest, str(out_dir / Path(params[dest]).name))
    if problem := _unrunnable(run):
        raise ValueError(f"cannot rerun {args.manifest}: {problem}")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create --out-dir {out_dir}: {exc.strerror}") from None
    run.argv = manifest["argv"]
    code = _run(parser, run)
    if code != 0:
        raise ValueError(f"re-run exited with {code}")
    ok = True
    for fresh, digest in replaced:
        match = fresh.exists() and _sha256(fresh) == digest
        print(f"{'OK' if match else 'MISMATCH'} {fresh}")
        ok &= match
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------

def _int_within(minimum: int, maximum: int | None = None):
    """An argparse ``type=`` that rejects integers outside [minimum, maximum]."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value
    return parse


_positive_int = _int_within(1)
_non_negative_int = _int_within(0)
_window_offset = _int_within(1, MAX_OFFSET)


def _add_io_options(sub):
    sub.add_argument("--input", required=True, help="input corpus file")
    sub.add_argument(
        "--kind", choices=("transliteration", "plaintext"),
        default="transliteration", help="input format",
    )
    sub.add_argument(
        "--profile", default="vms",
        help="profile: builtin name, JSON path, or 'chars' to derive "
             "single-character costs from the input",
    )
    sub.add_argument("--units", default=None,
                     help="comma-separated locus unit kinds to keep (e.g. P); "
                          "transliterations only")
    sub.add_argument("--pages", default=None,
                     help="file with one page id per line")
    sub.add_argument("--min-graphemes", type=_non_negative_int, default=2,
                     dest="min_graphemes",
                     help="drop tokens shorter than this many graphemes")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfcite",
        description="Positional co-occurrence analysis and self-citation "
                    "text generation for transliterated manuscripts.",
    )
    parser.add_argument("--version", action="version", version=selfcite.__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("parse", help="parse and re-emit a corpus")
    _add_io_options(sub)
    sub.set_defaults(func=_cmd_parse)

    sub = subs.add_parser("stats", help="positional statistics report")
    _add_io_options(sub)
    sub.add_argument("--format", choices=("json-lines", "markdown"),
                     default="json-lines")
    sub.add_argument("--rank-frequency-out", default=None,
                     dest="rank_frequency_out",
                     help="also write rank,type,count CSV to this file")
    sub.add_argument("--subsequence-subgroup", action="store_true",
                     dest="subsequence_subgroup",
                     help="subgroup test uses non-contiguous subsequences")
    sub.set_defaults(func=_cmd_stats)

    sub = subs.add_parser("grid", help="co-occurrence grid")
    _add_io_options(sub)
    sub.add_argument("--distance", type=_non_negative_int, default=0)
    sub.add_argument("--rows", type=_window_offset, default=9,
                     help="number of previous lines in the window")
    sub.add_argument("--cols", type=_window_offset, default=None,
                     help="position offsets each side (default: profile value)")
    sub.add_argument("--drop-line-edges", action="store_true",
                     dest="drop_line_edges",
                     help="ignore line-initial and line-final words")
    sub.add_argument("--format", choices=("csv", "markdown", "svg"), default="csv")
    sub.set_defaults(func=_cmd_grid)

    sub = subs.add_parser("network", help="distance-1 similarity edges as CSV")
    _add_io_options(sub)
    sub.add_argument("--min-freq", type=_positive_int, default=4, dest="min_freq")
    sub.set_defaults(func=_cmd_network)

    sub = subs.add_parser("path", help="shortest similarity path between types")
    _add_io_options(sub)
    sub.add_argument("--min-freq", type=_positive_int, default=4, dest="min_freq")
    sub.add_argument("--from", required=True, help="start word type")
    sub.add_argument("--to", required=True, help="end word type")
    sub.set_defaults(func=_cmd_path)

    sub = subs.add_parser("generate", help="generate a synthetic corpus")
    sub.add_argument("--params", default=None, dest="params_file",
                     help="generator parameter JSON; keys it omits keep their defaults")
    sub.add_argument("--profile", default="vms")
    sub.add_argument("--tokens", type=_positive_int, default=None)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_generate)

    sub = subs.add_parser("shuffle", help="token-shuffle null model")
    _add_io_options(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_shuffle)

    sub = subs.add_parser("validate", help="self-citation signature report")
    _add_io_options(sub)
    sub.set_defaults(func=_cmd_validate)

    sub = subs.add_parser("profile", help="validate and print a profile")
    sub.add_argument("--profile", default="vms")
    sub.add_argument("--out", default=None)
    sub.set_defaults(func=_cmd_profile)

    sub = subs.add_parser("rerun", help="re-execute a run manifest and verify")
    sub.add_argument("manifest", help="path to a .manifest.json file")
    sub.add_argument("--out-dir", required=True, dest="out_dir")
    sub.set_defaults(func=_cmd_rerun)

    return parser


def _run(parser, args) -> int:
    """Check what argparse cannot, run the subcommand, map errors to exit codes."""
    if problem := _unrunnable(args):  # checked before anything is written
        parser.error(problem)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except ValueError as exc:  # ParseError and SegmentationError too
        where = f"--input {args.input}: " if isinstance(exc, EmptyCorpusError) else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    # selfcite never calls BLAS, and one OpenBLAS thread halves numpy's import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv)
    return _run(parser, args)


if __name__ == "__main__":
    sys.exit(main())
