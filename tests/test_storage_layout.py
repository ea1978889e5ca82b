"""The model file layout: version-1 JSON with one tensor row per line and
`meta` on one line, read back bit-exactly; the older indented layout still
loads."""

import dataclasses
import json

import pytest

from phonomem import TrainConfig, load_model, parse_corpus, save_model, train
from phonomem.storage import model_to_dict


@pytest.fixture(
    params=["latin", "latin-per-range-sum", "turkish-r5", "digraphs"], scope="module"
)
def model(request, latin, turkish):
    if request.param == "latin":
        return train(latin)
    if request.param == "latin-per-range-sum":
        return train(latin, TrainConfig(normalize="per-range-sum"))
    if request.param == "turkish-r5":
        return train(turkish, r_max=5)
    return train(parse_corpus(["shasa sha ashe"], digraph_table={"sh": "ʃ"}), r_max=2)


def assert_same_model(back, m):
    assert back.alphabet == m.alphabet
    assert (back.r_max, back.g0) == (m.r_max, m.g0)
    assert back.g.dtype == m.g.dtype and back.g.tobytes() == m.g.tobytes()
    assert back.meta == m.meta


def test_saved_file_is_model_to_dict(tmp_path, model):
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == json.loads(json.dumps(model_to_dict(model)))
    assert_same_model(load_model(path), model)


def _types(value):
    """Every type in a nested value, containers included."""
    if isinstance(value, dict):
        return {dict}.union(*map(_types, value.keys()), *map(_types, value.values()))
    if isinstance(value, (list, tuple)):
        return {type(value)}.union(*map(_types, value))
    return {type(value)}


def test_saved_file_holds_each_field_as_plain_json(tmp_path):
    corpus = parse_corpus(["shasa sha ashe"], digraph_table={"sh": "ʃ"})
    m = train(corpus, r_max=2)
    m = dataclasses.replace(m, meta={**m.meta, "nested": ((1, 2), ("a", {"b": (3, (4.5, None))}))})
    path = tmp_path / "m.json"
    save_model(m, path)
    expected = {
        "format_version": 1,
        "alphabet": ["ʃ", "a", "s", "e"],
        "digraphs": [["sh", "ʃ"]],
        "r_max": 2,
        "g0": 1.0,
        "g": {"shape": [2, 4, 4], "data": m.g.reshape(-1).tolist()},
        "meta": {
            "train": {"eta": 1e-4, "timesteps": 10000, "g_init": 0.0, "normalize": "none"},
            "corpus": {
                "source": "<memory>",
                "sha256": "9560ef92cb8a3955abcc32184892cc0d3eb45a4a830e7a9c5093004284e6525f",
                "num_words": 3,
                "d": 4,
                "words": ["ʃasa", "ʃa", "aʃe"],
            },
            "nested": [[1, 2], ["a", {"b": [3, [4.5, None]]}]],
        },
    }
    assert json.loads(path.read_text(encoding="utf-8")) == expected
    assert model_to_dict(m) == expected
    assert _types(model_to_dict(m)) <= {dict, list, str, int, float, type(None)}


def test_one_tensor_row_per_line_and_meta_on_one_line(tmp_path, model):
    path = tmp_path / "m.json"
    save_model(model, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(' "g": '))
    assert lines[start].endswith('"data": [')
    d = model.alphabet.d
    rows = lines[start + 1 : start + 1 + model.r_max * d]
    assert lines[start + 1 + model.r_max * d] == " ]},"
    assert [json.loads(f"[{row.rstrip(',')}]") for row in rows] == model.g.reshape(-1, d).tolist()
    meta = [line for line in lines if line.startswith(' "meta": ')]
    assert len(meta) == 1
    assert json.loads("{" + meta[0] + "}")["meta"] == json.loads(json.dumps(model_to_dict(model)))["meta"]


def test_indented_layout_still_loads(tmp_path, model):
    path = tmp_path / "old.json"
    text = json.dumps(model_to_dict(model), ensure_ascii=False, indent=1) + "\n"
    path.write_text(text, encoding="utf-8")
    assert_same_model(load_model(path), model)


def test_file_without_digraphs_still_loads(tmp_path, latin):
    m = train(latin)
    payload = model_to_dict(m)
    del payload["digraphs"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_same_model(load_model(path), m)


def test_failed_save_keeps_earlier_file(tmp_path, model):
    path = tmp_path / "m.json"
    save_model(model, path)
    before = path.read_bytes()
    bad = dataclasses.replace(model, meta={**model.meta, "tags": {"a", "b"}})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        save_model(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]
