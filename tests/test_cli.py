import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from phonomem import load_model, save_model
from phonomem.cli import main
from phonomem.errors import ModelFormatError
from phonomem.storage import FORMAT_VERSION

LATIN_SHA = "7805e1492f0a1c7afdf8222b8237448c9f0831991ced27fe476b023e17bb9041"


@pytest.fixture(scope="module")
def latin_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "latin.json"
    assert main(["train", "@latin", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def turkish_model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "turkish.json"
    assert main(["train", "@turkish", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def flat_toy_model_path(tmp_path_factory):
    base = tmp_path_factory.mktemp("toy")
    corpus = base / "toy.txt"
    corpus.write_text("ata tad\n", encoding="utf-8")
    path = base / "toy-flat.json"
    assert main(["train", str(corpus), str(path), "--steps", "0"]) == 0
    return str(path)


def test_train_reports_summary(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["train", "@latin", str(out)]) == 0
    text = capsys.readouterr().out
    assert "d=18 r_max=3 words=35" in text
    assert "mean_g(1)=" in text and "mean_g(3)=" in text
    assert "decay=ok" in text
    model = load_model(out)
    assert model.meta["corpus"]["sha256"] == LATIN_SHA
    assert len(model.meta["corpus"]["words"]) == 35
    assert "created" in model.meta


def test_train_honors_flags(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["train", "@latin", str(out), "--r-max", "2", "--g0", "0.5",
                 "--eta", "1", "--steps", "1", "--normalize", "per-range-sum"]) == 0
    model = load_model(out)
    assert model.r_max == 2
    assert model.g0 == 0.5
    assert model.g.shape[0] == 2
    assert model.meta["train"]["normalize"] == "per-range-sum"


def test_model_round_trip_bit_exact(tmp_path, latin_model_path):
    model = load_model(latin_model_path)
    copy_path = tmp_path / "copy.json"
    save_model(model, copy_path)
    clone = load_model(copy_path)
    assert np.array_equal(clone.g, model.g)
    assert clone.g0 == model.g0
    assert clone.alphabet.symbols == model.alphabet.symbols
    assert clone.meta == model.meta


def test_model_version_mismatch(tmp_path, latin_model_path):
    payload = json.loads(open(latin_model_path, encoding="utf-8").read())
    payload["format_version"] = FORMAT_VERSION + 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="version"):
        load_model(bad)
    assert main(["inspect", str(bad)]) == 2


def test_model_empty_alphabet_names_file(tmp_path, latin_model_path, capsys):
    payload = json.loads(open(latin_model_path, encoding="utf-8").read())
    payload["alphabet"] = []
    bad = tmp_path / "empty.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="empty alphabet"):
        load_model(bad)
    assert main(["energy", str(bad), "x"]) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed model file: empty alphabet\n"


@pytest.mark.parametrize(
    "text, message",
    [("not a model {", "not valid JSON"),
     ('{"alphabet": ["a"], "r_max": 1}', "not a model file: missing format_version"),
     ("[1, 2]", "not a model file: missing format_version")],
)
def test_file_that_is_no_model_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)
    capsys.readouterr()
    assert main(["energy", str(bad), "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_save_model_failure_keeps_old_file(tmp_path, latin_model_path, monkeypatch, fail_at):
    model = load_model(latin_model_path)
    target = tmp_path / "m.json"
    target.write_text("old\n", encoding="utf-8")

    def half_write(self, text, encoding=None):
        with open(self, "w", encoding=encoding) as fh:
            fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")

    def refuse(src, dst):
        raise OSError(13, "Permission denied")

    if fail_at == "write":
        monkeypatch.setattr(Path, "write_text", half_write)
    else:
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_model(model, target)
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_energy_untrained_profile(flat_toy_model_path, capsys):
    assert main(["energy", flat_toy_model_path, "atad", "--profile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split("=")[1]) == 6.0
    assert [float(v) for v in lines[1].split(":")[1].split()] == [3.0, 4.0, 3.0]


def test_energy_single_sound(flat_toy_model_path, capsys):
    assert main(["energy", flat_toy_model_path, "a", "--profile"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[0].split("=")[1]) == 0.0
    assert lines[1].strip() == "profile:"


def test_energy_trained_word_vs_reversal(turkish_model_path, capsys):
    assert main(["energy", turkish_model_path, "güzelim"]) == 0
    forward = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert main(["energy", turkish_model_path, "milezüg"]) == 0
    backward = float(capsys.readouterr().out.splitlines()[0].split("=")[1])
    assert forward < backward


def test_energy_unknown_symbol_exit_2(latin_model_path, capsys):
    assert main(["energy", latin_model_path, "qux"]) == 2
    assert "unknown symbol" in capsys.readouterr().err


def test_generate_zero_steps_echoes(latin_model_path, capsys):
    assert main(["generate", latin_model_path, "serv", "--steps", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "serv"


def test_generate_flat_model_repeats_first_symbol(flat_toy_model_path, capsys):
    assert main(["generate", flat_toy_model_path, "a", "--steps", "5", "--p-next", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "aaaaaa"


def test_generate_golden_greedy(turkish_model_path, capsys):
    assert main(["generate", turkish_model_path, "güzel", "--steps", "15", "--p-next", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "güzelardanıarıznlard"


def test_generate_deterministic_per_seed(turkish_model_path, capsys):
    args = ["generate", turkish_model_path, "ki", "--steps", "20", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_generate_stop_tau(turkish_model_path, capsys):
    assert main(["generate", turkish_model_path, "güzel", "--stop-tau=-1e9"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "güzel"
    assert main(["generate", turkish_model_path, "güzel", "--stop-tau", "1e9",
                 "--max-steps", "8", "--p-next", "0"]) == 0
    word = capsys.readouterr().out.splitlines()[0]
    assert len(word) == len("güzel") + 8


def test_branch_flat_model_alphabet_order(flat_toy_model_path, capsys):
    assert main(["branch", flat_toy_model_path, "a", "--right", "1", "--down", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    children = [n for n in payload["nodes"] if n["col"] == 1]
    assert [n["word"] for n in children] == ["aa", "at", "ad"]
    assert [n["rank"] for n in children] == [0, 1, 2]


def test_branch_down_one_is_chain(latin_model_path, capsys):
    assert main(["branch", latin_model_path, "s", "--right", "4", "--down", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["nodes"]) == 5
    assert all(e["kind"] == "right" for e in payload["edges"])


def test_branch_json_marks_input_words_and_is_dag(latin_model_path, capsys):
    assert main(["branch", latin_model_path, "in", "--right", "7", "--down", "6",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    nodes = {n["id"]: n for n in payload["nodes"]}
    assert len(nodes) == len(payload["nodes"])  # unique ids
    flagged = {n["word"] for n in payload["nodes"] if n["flag"] == "input-word"}
    assert {
        "insula", "insulam", "insulae", "insulā", "insulās", "insulārum", "insulis",
    } <= flagged
    assert nodes["in"]["flag"] == "partial-input-word"
    pseudo = [n for n in payload["nodes"] if n["flag"] == "pseudoword"]
    assert pseudo  # variations beyond the corpus exist
    for edge in payload["edges"]:
        src, dst = nodes[edge["src"]], nodes[edge["dst"]]
        if edge["kind"] == "right":
            assert dst["col"] == src["col"] + 1 and dst["rank"] == 0
        else:
            assert dst["col"] == src["col"] and dst["rank"] == src["rank"] + 1
    # (col, rank) strictly increases along every edge: the graph is acyclic
    assert all(
        (nodes[e["dst"]]["col"], nodes[e["dst"]]["rank"])
        > (nodes[e["src"]]["col"], nodes[e["src"]]["rank"])
        for e in payload["edges"]
    )


def test_branch_dot_parses_back(latin_model_path, tmp_path, capsys):
    out = tmp_path / "space.gv"
    assert main(["branch", latin_model_path, "in", "--right", "4", "--down", "3",
                 "--format", "dot", "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    defined = set(re.findall(r'^\s*"((?:[^"\\]|\\.)*)" \[label=', text, re.M))
    edges = re.findall(r'^\s*"((?:[^"\\]|\\.)*)" -> "((?:[^"\\]|\\.)*)"', text, re.M)
    assert main(["branch", latin_model_path, "in", "--right", "4", "--down", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(defined) == len(payload["nodes"])
    assert len(edges) == len(payload["edges"])
    for src, dst in edges:
        assert src in defined and dst in defined
    assert "shape=box, penwidth=2" in text  # input words marked


def test_branch_corpus_override(latin_model_path, capsys):
    assert main(["branch", latin_model_path, "in", "--right", "5", "--down", "2",
                 "--format", "json", "--corpus", "@latin"]) == 0
    override = json.loads(capsys.readouterr().out)
    assert main(["branch", latin_model_path, "in", "--right", "5", "--down", "2",
                 "--format", "json"]) == 0
    default = json.loads(capsys.readouterr().out)
    assert override == default  # model meta words are the training corpus


def test_segment_huge_threshold(turkish_model_path, capsys):
    assert main(["segment", turkish_model_path, "güzelsiniz", "--threshold", "1e6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].split("\t")[0] == "güzelsiniz"


def test_segment_splits_on_low_threshold(turkish_model_path, capsys):
    assert main(["segment", turkish_model_path, "güzelkadın", "--threshold", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 2
    assert "".join(line.split("\t")[0] for line in lines) == "güzelkadın"


def test_predict_full_word_probability_one(latin_model_path, capsys):
    assert main(["predict", latin_model_path, "ovis"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["ovis\t1"]


def test_predict_pasto_lists_all_forms(latin_model_path, capsys):
    assert main(["predict", latin_model_path, "pāstō"]) == 0
    lines = capsys.readouterr().out.splitlines()
    words = [line.split("\t")[0] for line in lines]
    assert len(words) == 7
    probs = [float(line.split("\t")[1]) for line in lines]
    assert probs == sorted(probs, reverse=True)


def test_predict_limit_and_lexicon(latin_model_path, capsys):
    assert main(["predict", latin_model_path, "serv", "--limit", "3",
                 "--lexicon", "@latin"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_inspect_raw_and_reciprocal(latin_model_path, capsys):
    assert main(["inspect", latin_model_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 18 and payload["decay"] is True
    assert payload["tensors"]["kind"] == "raw"
    assert main(["inspect", latin_model_path, "--reciprocal"]) == 0
    recip = json.loads(capsys.readouterr().out)
    flat = [v for mat in recip["tensors"]["g"] for row in mat for v in row]
    assert "div0" in flat  # count-1 pairs sit exactly at g0
    assert 1.0 in flat  # untrained pairs map to 1/(g0-0)


def test_explore_session(latin_model_path, capsys, monkeypatch):
    feed = iter(["0", "bogus", "1", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["explore", latin_model_path, "se"]) == 0
    out = capsys.readouterr().out
    assert "word: se" in out
    assert "0)" in out and "1)" in out
    assert "enter a rank" in out  # bogus input handled
    final = out.splitlines()[-1]
    assert len(final) == 4 and final.startswith("se")


def test_explore_eof_terminates(latin_model_path, capsys, monkeypatch):
    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert main(["explore", latin_model_path, "in"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "in"


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as err:
        main(["train"])  # missing positionals
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 1


def test_data_errors_exit_2(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["train", "@klingon", str(tmp_path / "m.json")]) == 2
    assert "no embedded corpus" in capsys.readouterr().err
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n", encoding="utf-8")
    assert main(["train", str(empty), str(tmp_path / "m.json")]) == 2
    assert "empty corpus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [("g0", float("nan"), "g0 must be finite, got nan"),
     ("alphabet", "", "empty symbol or digraph spelling")],
)
def test_model_file_bad_value_exits_2(tmp_path, latin_model_path, capsys, field, value, message):
    payload = json.loads(open(latin_model_path, encoding="utf-8").read())
    if field == "alphabet":
        payload["alphabet"][0] = value
    else:
        payload[field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=message):
        load_model(bad)
    assert main(["inspect", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: malformed model file: {message}\n"
