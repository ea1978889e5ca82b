"""The model file layout: version-1 JSON with one tensor row per line and
`meta` on one line, read back bit-exactly; the older indented layout still
loads."""

import dataclasses
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from phonomem import Alphabet, TrainConfig, load_model, parse_corpus, save_model, train
from phonomem.model import InteractionModel
from phonomem.storage import model_to_dict
from phonomem.trainer import count_pairs


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


# Values whose text differs though they compare equal (0.0, -0.0), the
# extremes of float64, and plain repeats.
SPECIAL = [0.0, -0.0, 5e-324, sys.float_info.max, 1.0, 0.1, 2.5]


@st.composite
def tensors(draw):
    r_max, d = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    size = r_max * d * d
    finite = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
    if draw(st.booleans()):  # all distinct, as no trained range is
        values = draw(st.lists(finite, min_size=size, max_size=size, unique_by=float.hex))
    else:
        values = draw(st.lists(st.one_of(st.sampled_from(SPECIAL), finite),
                               min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(r_max, d, d)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(g=tensors())
@example(g=np.array([[[0.0, -0.0], [-0.0, 0.0]], [[5e-324, sys.float_info.max], [0.0, 0.0]]]))
@example(g=np.array([[[-0.0]]]))
def test_tensor_lines_are_the_per_row_dumps(tmp_path, g):
    """Byte-exact, not equal in value: a -0.0 written as 0.0 would parse equal."""
    d = g.shape[-1]
    m = InteractionModel(Alphabet(tuple("abcdef"[:d])), g.shape[0], 1.0, g)
    path = tmp_path / "m.json"
    save_model(m, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(' "g": ')) + 1
    reference = [json.dumps(row, ensure_ascii=False)[1:-1] for row in g.reshape(-1, d).tolist()]
    assert lines[start : start + len(reference)] == [f"  {row}," for row in reference[:-1]] + [
        f"  {reference[-1]}"
    ]
    assert load_model(path).g.tobytes() == g.tobytes()


@pytest.mark.parametrize("name", ["latin", "turkish"])
@pytest.mark.parametrize("normalize", ["none", "per-range-sum"])
@pytest.mark.parametrize(
    "cfg", [{"g_init": 0.0}, {"g_init": 0.5}, {"timesteps": 0}], ids=["g_init-0", "g_init-0.5", "steps-0"]
)
def test_a_trained_range_holds_no_more_values_than_its_counts(request, name, normalize, cfg):
    """save_model formats each distinct value of a range once; it is cheap
    because a trained range u + v*count has at most as many distinct values
    as its distinct pair counts."""
    corpus = request.getfixturevalue(name)
    m = train(corpus, TrainConfig(normalize=normalize, **cfg), r_max=5)
    counts = count_pairs(corpus, 5).counts
    for matrix, count in zip(m.g, counts):
        assert len(np.unique(matrix.view(np.uint64))) <= len(np.unique(count))
