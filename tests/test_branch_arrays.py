"""The branch space is stored as column arrays: `len` of a column and both
exports read the arrays and construct no BranchNode, and the nodes, built
only on request, change no export byte."""

import gc
import json
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from phonomem import enumerate_branch_space, parse_corpus, ranked_next_sounds, train
from phonomem import generator as generator_module
from phonomem.cli import main
from phonomem.export import branch_to_dot, branch_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


@pytest.fixture
def constructions(monkeypatch):
    """Number of BranchNode objects constructed since the fixture was set up."""
    made = [0]
    node_class = generator_module.BranchNode

    def counted(*args, **kwargs):
        made[0] += 1
        return node_class(*args, **kwargs)

    monkeypatch.setattr(generator_module, "BranchNode", counted)
    return made


@pytest.fixture(scope="module")
def corpora(latin, turkish, latin_model, turkish_model):
    synth = parse_corpus(synth_words(1, 600))
    assert synth.alphabet.d == 120
    ch = parse_corpus(["ch cha hac ach"], digraph_table={"ch": "ch"})
    return {
        "latin": (latin, latin_model),
        "turkish": (turkish, turkish_model),
        "synth": (synth, train(synth)),
        "ch": (ch, train(ch)),
    }


NAMES = ("latin", "turkish", "synth", "ch")


def _roots(corpus):
    return ((), corpus.words[0][:1], corpus.words[-1][:2])


def _exports(space, corpus):
    payload = json.dumps(branch_to_json(space, corpus.alphabet, corpus.words), indent=1)
    return payload, branch_to_dot(space, corpus.alphabet, corpus.words)


@pytest.mark.parametrize("name", NAMES)
def test_len_and_exports_construct_no_node(corpora, constructions, name):
    corpus, model = corpora[name]
    space = enumerate_branch_space(model, corpus.words[0][:1], 4, 4)
    sizes = [len(space.columns[k]) for k in range(len(space.columns))]
    _exports(space, corpus)
    assert constructions[0] == 0
    # The counter sees the nodes once they are asked for, each built once.
    assert len(list(space.nodes())) == sum(sizes) == constructions[0]
    list(space.nodes())
    assert constructions[0] == sum(sizes)


def test_cli_branch_constructs_no_node(tmp_path, capsys, constructions):
    path = tmp_path / "latin.json"
    assert main(["train", "@latin", str(path)]) == 0
    for fmt in ("json", "dot"):
        assert main(["branch", str(path), "s", "--right", "4", "--down", "4",
                     "--format", fmt, "--corpus", "@latin"]) == 0
    assert capsys.readouterr().out
    assert constructions[0] == 0


@pytest.mark.parametrize("depths", [(2, 3), (4, 4), (6, 4)])
@pytest.mark.parametrize("name", NAMES)
def test_exports_do_not_depend_on_built_nodes(corpora, name, depths):
    corpus, model = corpora[name]
    for root in _roots(corpus):
        arrays_only = _exports(enumerate_branch_space(model, root, *depths), corpus)
        space = enumerate_branch_space(model, root, *depths)
        list(space.nodes())
        assert _exports(space, corpus) == arrays_only, root


@pytest.mark.parametrize("name", NAMES)
def test_parents_are_nondecreasing(corpora, name):
    corpus, model = corpora[name]
    for root in _roots(corpus):
        columns = enumerate_branch_space(model, root, 6, 4).columns
        assert columns[0].parent.tolist() == [-1]
        for above, column in zip(columns, columns[1:]):
            parent = column.parent.tolist()
            assert parent == sorted(parent)
            # every node of the column above has at least one child
            assert sorted(set(parent)) == list(range(len(above)))


def test_children_follow_the_one_row_ranking_when_energies_overflow(latin):
    # With g0 near the float64 limit, cross terms over two or more ranges
    # overflow to inf, so whole rows tie; parents with no down budget left
    # take only their first sound.
    m = train(latin, g0=1e308)
    for root in ((), latin.words[0][:2]):
        space = enumerate_branch_space(m, root, 4, 3)
        with np.errstate(over="ignore"):
            for node in space.nodes():
                cross, order = ranked_next_sounds(m, node.word, base=0.0)
                children = node.children_right
                assert [child.word[-1] for child in children] == order[: len(children)]
                assert [child.energy for child in children] == [
                    node.energy + cross[child.word[-1]] for child in children
                ]
        assert np.isinf(space.columns[-1].energy).any()


@pytest.mark.parametrize("built", [False, True], ids=["arrays", "nodes"])
def test_dropped_space_frees_its_arrays_without_the_cyclic_collector(latin_model, built):
    # No reference cycle may hold the column arrays: with the collector off,
    # dropping the space alone frees them, whether or not nodes were built.
    space = enumerate_branch_space(latin_model, (0,), 4, 3)
    if built:
        assert list(space.nodes())
    refs = [weakref.ref(a) for c in space.columns for a in (c.parent, c.symbol, c.rank, c.energy)]
    gc.disable()
    try:
        del space
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
