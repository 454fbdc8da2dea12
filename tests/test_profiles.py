import json

import pytest

from selfcite.corpus import parse_plaintext
from selfcite.profiles import load_profile, profile_from_corpus


def test_builtin_vms_profile():
    profile = load_profile("vms")
    assert profile.name == "vms"
    assert "ch" in profile.alphabet.graphemes
    assert profile.alphabet.dissimilar_substitution_cost == 2
    assert profile.gallows == frozenset({"k", "t", "p", "f"})
    assert profile.prefixes == frozenset({"y", "o", "s", "d"})
    assert profile.line_final_glyphs == frozenset({"m"})
    assert profile.grid_pos_offset == 6
    assert len(profile.digest) == 64


def test_vms_similarity_groups_are_the_documented_ones():
    groups = {tuple(sorted(g)) for g in load_profile("vms").alphabet.similarity_groups}
    assert groups == {("a", "o"), ("o", "y"), ("f", "k", "p", "t")}


def test_profile_digest_stable():
    assert load_profile("vms").digest == load_profile("vms").digest


def test_load_profile_from_file(tmp_path):
    data = {
        "graphemes": ["a", "b", "ch"],
        "similarity_groups": [["a", "b"]],
        "dissimilar_substitution_cost": 2,
        "gallows": ["b"],
    }
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    profile = load_profile(path)
    assert profile.name == "custom"
    assert profile.alphabet.segment("chab") == ("ch", "a", "b")
    assert profile.gallows == frozenset({"b"})
    assert profile.prefixes == frozenset()


def test_load_profile_unknown_name():
    with pytest.raises(ValueError, match="neither a builtin name"):
        load_profile("no-such-profile")


@pytest.mark.parametrize("payload,message", [
    ("[1, 2]", "expected a JSON object"),
    ("{}", "missing 'graphemes'"),
    ('{"graphemes": "abc"}', "must be a list of strings"),
    ('{"graphemes": ["a"], "similarity_groups": ["a"]}', "list of lists"),
    ('{"graphemes": ["a"], "gallows": ["q"]}', "not in inventory"),
    ("{nope", "malformed profile"),
    ('{"graphemes": ["a"], "grid_pos_offset": [1]}', "grid_pos_offset must be an integer"),
    ('{"graphemes": ["a"], "grid_pos_offset": 2.7}', "grid_pos_offset must be an integer"),
    ('{"graphemes": ["a"], "grid_pos_offset": true}', "grid_pos_offset must be an integer"),
    ('{"graphemes": ["a"], "grid_pos_offset": 0}', "grid_pos_offset must be >= 1"),
    ('{"graphemes": ["a"], "grid_pos_offset": 1001}', "grid_pos_offset must be .* <= 1000"),
    ('{"graphemes": ["k", "t"], "gallows": 5}', "gallows must be a list of strings"),
    ('{"graphemes": ["k", "t"], "gallows": "kt"}', "gallows must be a list of strings"),
    ('{"graphemes": ["a"], "name": 5}', "name must be a string"),
    ('{"graphemes": ["a"], "indel_cost": true}', "indel_cost must be a positive integer"),
    ('{"graphemes": ["a"], "similarity_groups": [["a", ["a"]]]}', "list of lists"),
])
def test_load_profile_malformed(tmp_path, payload, message):
    path = tmp_path / "bad.json"
    path.write_text(payload, encoding="utf-8")
    with pytest.raises(ValueError, match=message) as excinfo:
        load_profile(path)
    assert str(excinfo.value).startswith(f"malformed profile {path}: ")


def test_profile_from_corpus_uses_observed_characters():
    corpus = parse_plaintext("The creation of\nthe world")
    profile = profile_from_corpus(corpus)
    assert set(profile.alphabet.graphemes) == set("thecrainofwld")
    assert profile.alphabet.dissimilar_substitution_cost == 1
    assert profile.alphabet.similarity_groups == ()
    assert profile.grid_pos_offset == 5


def test_describe_round_trips_through_json():
    described = load_profile("vms").describe()
    assert json.loads(json.dumps(described)) == described
