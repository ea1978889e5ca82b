"""Exit codes at the CLI edges: library argument errors are usage errors
(exit 1), unreadable or foreign input is a data error (exit 2), and neither
escapes as a traceback."""

import json
import warnings
from pathlib import Path

import pytest

from phonomem import ModelFormatError, load_model
from phonomem.cli import main
from phonomem.storage import model_from_dict


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("edges")
    model = base / "latin.json"
    assert main(["train", "@latin", str(model)]) == 0
    binary = base / "binary.json"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80\x81")
    return {"model": str(model), "binary": str(binary)}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["segment", "{model}", "servus", "--threshold", "-1"], 1),
        (["predict", "{model}", "serv", "--beta", "-1"], 1),
        (["predict", "{model}", "serv", "--beta", "nan"], 1),
        (["predict", "{model}", "serv", "--beta", "inf"], 1),
        (["branch", "{model}", "in", "--right", "0"], 1),
        (["generate", "{model}", "serv", "--p-next", "2"], 1),
        (["generate", "{model}", "", "--steps", "0"], 1),
        (["generate", "{model}", "", "--stop-tau", "0", "--max-steps", "0"], 1),
        (["generate", "{model}", "serv", "--stop-tau", "nan"], 1),
        (["energy", "{binary}", "x"], 2),
        (["predict", "{model}", "", "--lexicon", "@turkish"], 2),
        (["branch", "{model}", "in", "--corpus", "@turkish"], 2),
        (["generate", "{model}", "serv", "--steps", "-3"], 1),
        (["generate", "{model}", "serv", "--stop-tau", "0", "--max-steps", "-1"], 1),
        (["predict", "{model}", "pāstō", "--limit", "-1"], 1),
        (["train", "@latin", "{model}.out.json", "--g0", "nan"], 1),
        (["train", "@latin", "{model}.out.json", "--g0", "inf"], 1),
        (["train", "@latin", "{model}.out.json", "--eta", "nan"], 1),
        (["train", "@latin", "{model}.out.json", "--eta", "inf"], 1),
        (["train", "@latin", "{model}.out.json", "--g-init", "nan"], 1),
        (["train", "@latin", "{model}.out.json", "--g-init", "inf"], 1),
        (["segment", "{model}", "servus", "--threshold", "nan"], 1),
        (["predict", "{model}", "serv", "--beta", "1e308"], 1),
        (["train", "@latin", "{model}.out.json", "--g-init", "1e308"], 1),
    ],
)
def test_edge_exit_codes(paths, capsys, argv, code):
    capsys.readouterr()
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["predict", "{model}", "", "--lexicon", "@turkish"],
        ["branch", "{model}", "in", "--corpus", "@turkish"],
    ],
)
def test_foreign_lexicon_is_unknown_symbol(paths, capsys, argv):
    assert main([a.format(**paths) for a in argv]) == 2
    assert "unknown symbol" in capsys.readouterr().err


@pytest.fixture(scope="module")
def huge_g0(tmp_path_factory):
    path = tmp_path_factory.mktemp("huge") / "huge.json"
    assert main(["train", "@latin", str(path), "--g0", "1e308"]) == 0
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "{model}", "servus", "--profile"],
        ["generate", "{model}", "serv"],
        # At a finite threshold every overflowed gap is rightly above it and
        # the one-sound parts print 0; inf keeps the word whole.
        ["segment", "{model}", "servus", "--threshold", "inf"],
        ["predict", "{model}", "s"],
        ["branch", "{model}", "s"],
    ],
)
def test_overflowing_energies_exit_1_and_print_none(huge_g0, capsys, argv):
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(model=huge_g0) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "meta",
    [
        {"corpus": [1]},
        {"corpus": None},
        {"corpus": {"words": [1, 2]}},
        {"corpus": {"words": "servus"}},
        [],
    ],
    ids=["corpus-list", "corpus-null", "words-ints", "words-string", "meta-list"],
)
@pytest.mark.parametrize("command", ["predict", "branch"])
def test_malformed_meta_corpus_is_data_error(paths, tmp_path, capsys, meta, command):
    payload = json.loads(Path(paths["model"]).read_text(encoding="utf-8"))
    payload["meta"] = meta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(bad), "s"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "malformed model file" in captured.err


@pytest.mark.parametrize("kind", ["deep-array", "deep-meta"])
def test_over_nested_model_file_is_data_error(paths, tmp_path, capsys, kind):
    if kind == "deep-array":
        text = "[" * 200_000
    else:
        text = Path(paths["model"]).read_text(encoding="utf-8")
        text = text[: text.rindex('"meta": ')] + '"meta": {"x": ' + "[" * 995 + "]" * 995 + "}\n}\n"
    bad = tmp_path / "deep.json"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ModelFormatError, match="nested too deeply"):
        load_model(bad)
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: malformed model file: nested too deeply\n"


def _r_max_true(payload):
    payload["r_max"] = True
    payload["g"]["shape"][0] = 1
    payload["g"]["data"] = payload["g"]["data"][: len(payload["alphabet"]) ** 2]


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.update(g0="1.5"),
        lambda p: p.update(g0=True),
        lambda p: p.update(g0=10**400),
        lambda p: p.update(r_max="3"),
        lambda p: p.update(r_max=3.7),
        _r_max_true,
        lambda p: p.update(alphabet="".join(p["alphabet"])),
        lambda p: p.update(digraphs=["sv"]),
        lambda p: p["g"].update(data=list(map(str, p["g"]["data"]))),
    ],
    ids=["g0-string", "g0-bool", "g0-huge-int", "r_max-string", "r_max-float", "r_max-bool",
         "alphabet-string", "digraph-string", "data-strings"],
)
def test_mistyped_field_is_data_error(paths, tmp_path, capsys, edit):
    payload = json.loads(Path(paths["model"]).read_text(encoding="utf-8"))
    edit(payload)
    with pytest.raises(ModelFormatError, match="malformed model file"):
        model_from_dict(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_over_nested_meta_in_payload_is_data_error(paths):
    payload = json.loads(Path(paths["model"]).read_text(encoding="utf-8"))
    deep = []
    for _ in range(2000):
        deep = [deep]
    payload["meta"] = {"x": deep}
    with pytest.raises(ModelFormatError, match="^malformed model file: nested too deeply$"):
        model_from_dict(payload)


def _huge_g0(payload):
    payload["g0"] = "HUGE"


def _huge_data_entry(payload):
    payload["g"]["data"][0] = "HUGE"


@pytest.mark.parametrize("edit", [_huge_g0, _huge_data_entry], ids=["g0", "g-data"])
def test_integer_literal_past_the_digit_limit_is_data_error(paths, tmp_path, capsys, edit):
    # json.dumps refuses such an integer too, so it is spliced into the text.
    payload = json.loads(Path(paths["model"]).read_text(encoding="utf-8"))
    edit(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload).replace('"HUGE"', "1" + "0" * 4999), encoding="utf-8")
    with pytest.raises(ModelFormatError, match=f"^{bad}: "):
        load_model(bad)
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_negative_shape_length_is_data_error(paths, tmp_path, capsys, axis):
    # numpy's reshape would read -1 as "infer this length" and load the file.
    payload = json.loads(Path(paths["model"]).read_text(encoding="utf-8"))
    payload["g"]["shape"][axis] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ModelFormatError, match="negative length"):
        load_model(bad)
    capsys.readouterr()
    assert main(["energy", str(bad), "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1
    assert load_model(paths["model"]).g.shape == (3, 18, 18)
