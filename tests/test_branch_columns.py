"""Branch-space materialization scores one column per array call and builds
the same tree, node for node and bit for bit, as the per-node loop it
replaced."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from phonomem import (
    BranchNode,
    InteractionModel,
    TrainConfig,
    ablate,
    detokenize,
    enumerate_branch_space,
    load_model,
    parse_corpus,
    tokenize,
    train,
    word_energy,
)
from phonomem import model as model_module
from phonomem.cli import main
from phonomem.model import eval_count, next_sound_energies, reset_eval_count

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


def _reference_ranked(m, prefix, base):
    """ranked_next_sounds as it was before the shared cross helper: one
    np.zeros, one subtraction per range and one argsort per prefix."""
    cross = np.zeros(m.d, dtype=np.float64)
    for r in range(1, min(m.r_max, len(prefix)) + 1):
        cross += m.g0 - m.g[r - 1][prefix[-r]]
    energies = base + cross
    return energies, np.argsort(energies, kind="stable").tolist()


def _reference_columns(m, prefix, max_depth_right, max_depth_down):
    """The per-node loop that the array build of BranchSpace.columns
    replaced, one ranking per frontier node. Returns the columns and the
    number of nodes it expanded."""
    root = BranchNode(tuple(prefix), word_energy(m, tuple(prefix)), col=0, depth_down=0)
    columns = [[root]]
    frontier = [(root, max_depth_down - 1)]
    expanded = 0
    for col in range(1, max_depth_right + 1):
        grown = []
        for node, budget in frontier:
            energies, order = _reference_ranked(m, node.word, node.energy)
            expanded += 1
            for rank, s in enumerate(order[: budget + 1]):
                child = BranchNode(node.word + (s,), float(energies[s]), col, rank, node)
                node.children_right.append(child)
                grown.append((child, budget - rank))
        if not grown:
            break
        columns.append([node for node, _ in grown])
        frontier = grown
    return columns, expanded


def _flat(columns):
    """Every field the tree carries, with energies as exact hex strings."""
    return [
        (
            node.word,
            node.energy.hex(),
            node.col,
            node.depth_down,
            None if node.parent is None else node.parent.word,
            [child.word for child in node.children_right],
        )
        for column in columns
        for node in column
    ]


@pytest.fixture(scope="module")
def models(latin, turkish, latin_model, turkish_model, toy_model):
    synth = parse_corpus(synth_words(1, 600))
    assert synth.alphabet.d == 120
    return {
        "latin": (latin, latin_model),
        "turkish": (turkish, turkish_model),
        # Non-integer couplings, so a change in summation order shows.
        "latin_normalized": (latin, train(latin, TrainConfig(normalize="per-range-sum"))),
        "synth": (synth, train(synth)),
        "turkish_r5": (turkish, train(turkish, r_max=5)),
        "untrained": (latin, InteractionModel.untrained(latin.alphabet)),
        "toy_ablated": (None, ablate(toy_model, [1])),
    }


MODELS = (
    "latin", "turkish", "latin_normalized", "synth", "untrained", "toy_ablated", "turkish_r5"
)


def _prefixes(corpus, m):
    first = corpus.words[0] if corpus is not None else (m.d - 1, 0)
    return [(), first[:1], first[:2]]


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depths", [(1, 1), (4, 4), (6, 6)])
def test_columns_equal_the_per_node_loop(models, name, depths):
    corpus, m = models[name]
    for prefix in _prefixes(corpus, m):
        expected, expanded = _reference_columns(m, prefix, *depths)
        reset_eval_count()
        columns = enumerate_branch_space(m, prefix, *depths).columns
        assert eval_count() == m.d * expanded
        assert _flat(columns) == _flat(expected)


@pytest.mark.parametrize("name", MODELS)
def test_right_past_r_max_from_an_empty_root(models, name):
    _, m = models[name]
    depths = (m.r_max + 3, 2)
    expected, expanded = _reference_columns(m, (), *depths)
    reset_eval_count()
    columns = enumerate_branch_space(m, (), *depths).columns
    assert eval_count() == m.d * expanded
    assert len(columns) == m.r_max + 4
    assert _flat(columns) == _flat(expected)


@pytest.mark.parametrize("name", MODELS)
def test_one_row_case_equals_the_old_cross_sum(models, name):
    corpus, m = models[name]
    for prefix in _prefixes(corpus, m) + [(0,) * (m.r_max + 2)]:
        expected, _ = _reference_ranked(m, prefix, 0.0)
        assert [e.hex() for e in next_sound_energies(m, prefix, base=0.0).tolist()] == [
            e.hex() for e in expected.tolist()
        ]


def test_block_size_changes_no_node(monkeypatch, models):
    _, m = models["turkish"]
    expected = _flat(enumerate_branch_space(m, (), 5, 4).columns)
    for block in (1, m.d, 3 * m.d + 1):
        monkeypatch.setattr(model_module, "_BLOCK", block)
        reset_eval_count()
        space = enumerate_branch_space(m, (), 5, 4)
        assert _flat(space.columns) == expected
        assert eval_count() == m.d * sum(len(c) for c in space.columns[:-1])


def test_budget_past_d_gives_at_most_d_children(toy_model):
    assert toy_model.d == 3
    space = enumerate_branch_space(toy_model, (), 2, 10)
    expected, _ = _reference_columns(toy_model, (), 2, 10)
    assert _flat(space.columns) == _flat(expected)
    assert all(len(node.children_right) <= toy_model.d for node in space.nodes())
    assert [len(c) for c in space.columns] == [1, 3, 9]


def test_cli_branch_down_past_d(tmp_path, capsys):
    path = tmp_path / "latin.json"
    assert main(["train", "@latin", str(path)]) == 0
    capsys.readouterr()
    assert main(["branch", str(path), "s", "--right", "2", "--down", "40",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    m = load_model(path)
    expected, _ = _reference_columns(m, tokenize("s", m.alphabet), 2, 40)
    nodes = [node for column in expected for node in column]
    spelled = [detokenize(node.word, m.alphabet) for node in nodes]
    assert [n["word"] for n in payload["nodes"]] == spelled
    assert [n["rank"] for n in payload["nodes"]] == [node.depth_down for node in nodes]
    assert [n["energy"] for n in payload["nodes"]] == [node.energy for node in nodes]
    assert max(len(node.children_right) for node in nodes) == m.d
    assert [n["col"] for n in payload["nodes"]].count(1) == m.d
