"""Commands on the input shapes that once made them slow, against even controls.

Each shape is built from a seed and paired with an even control of the same
token count. ``network`` and ``path`` run in-process through ``cli.main`` on
both, and must exit 0 in a wall time within a fixed factor of the control's
plus a constant. The factor and the constant leave room for a noisy host;
the defects these shapes found took 50 to 80 times the control's time.

- ``wide_alphabet``: 1,500 types of 3 to 8 characters from 2,000 CJK
  characters, under ``chars``, where every swap costs 1. Building the
  network by trying every grapheme of the alphabet at every position took
  about 7 s.
- ``long_types``: 400 short types plus two of 5,000 characters one deletion
  apart; its control has 402 types of 28 characters. Copying the type once
  per deletion and per swap, or rebuilding a deletion per position to label
  the edge, took about 6 s.

Each shape and control holds one connected pair, so ``path`` finds a path.
"""

import random
import time

import pytest

from selfcite.cli import main

FACTOR = 4
CONSTANT_S = 0.5
MIN_FREQ = 4


def _write(path, types, rng):
    """Each type ``MIN_FREQ`` times, shuffled, eight words a line."""
    words = [w for w in types for _ in range(MIN_FREQ)]
    rng.shuffle(words)
    path.write_text("\n".join(" ".join(words[k : k + 8]) for k in range(0, len(words), 8)) + "\n",
                    encoding="utf-8")


def _types(rng, letters, count, lengths):
    types = set()
    while len(types) < count:
        types.add("".join(rng.choice(letters) for _ in range(rng.choice(lengths))))
    return sorted(types)


def _connected(word):
    """``word`` and the word with its middle character deleted."""
    half = len(word) // 2
    return [word, word[:half] + word[half + 1 :]]


def _wide_alphabet(rng, control):
    letters = "abcdefghijklmnopqrst" if control else [chr(0x4E00 + k) for k in range(2000)]
    types = _types(rng, letters, 1500, range(3, 9))
    return types, _connected(types[0] + types[1])


def _long_types(rng, control):
    # The control spreads about the same characters over its types evenly.
    if control:
        return _types(rng, "abcdefghij", 400, (28,)), _connected("abcdefghij" * 3)
    short = _types(rng, "abcdefghij", 400, range(2, 6))
    return short, _connected("".join(rng.choice("abcdefghij") for _ in range(5000)))


SHAPES = {"wide_alphabet": _wide_alphabet, "long_types": _long_types}


def _seconds(tmp_path, argv):
    start = time.perf_counter()
    code = main([*argv, "--out", str(tmp_path / "out.txt")])
    return code, time.perf_counter() - start


@pytest.mark.parametrize("command", ["network", "path"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shape_runs_near_its_control(tmp_path, shape, command):
    times = []
    for control in (True, False):
        rng = random.Random(11)
        types, (source, target) = SHAPES[shape](rng, control)
        corpus = tmp_path / "corpus.txt"
        _write(corpus, [*types, source, target], rng)
        argv = [command, "--input", str(corpus), "--kind", "plaintext", "--profile", "chars",
                "--min-graphemes", "1", "--min-freq", str(MIN_FREQ)]
        if command == "path":
            argv += ["--from", source, "--to", target]
        code, seconds = _seconds(tmp_path, argv)
        assert code == 0, (shape, control)
        times.append(seconds)
    control_s, shape_s = times
    assert shape_s <= FACTOR * control_s + CONSTANT_S, (shape, command, times)
