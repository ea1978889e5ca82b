"""Export flags read only the input words under the root prefix; they must
equal flags read against the whole lexicon."""

import sys
from pathlib import Path

import pytest

from phonomem import BranchNode, detokenize, enumerate_branch_space, parse_corpus, train
from phonomem.export import branch_to_dot, branch_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


def _reference_branch_to_json(space, alphabet, input_words=()):
    """branch_to_json with input-word and proper-prefix sets built over the
    whole lexicon (valid where every symbol is one character)."""
    input_set = {tuple(w) for w in input_words}
    prefixes = {w[:k] for w in input_set for k in range(1, len(w))}
    listed = list(space.nodes())
    words = [detokenize(node.word, alphabet) for node in listed]
    root_id = "."
    while root_id in words:
        root_id += "."
    names: dict[BranchNode, str] = {}
    nodes, edges, above = [], [], ""
    for node, word in zip(listed, words):
        names[node] = node_id = word or root_id
        if node.word in input_set:
            flag = "input-word"
        elif node.word in prefixes:
            flag = "partial-input-word"
        else:
            flag = "pseudoword"
        nodes.append({"id": node_id, "word": word, "energy": node.energy,
                      "col": node.col, "rank": node.depth_down, "flag": flag})
        if node.depth_down:
            edges.append({"src": above, "dst": node_id, "kind": "down"})
        elif node.parent is not None:
            edges.append({"src": names[node.parent], "dst": node_id, "kind": "right"})
        above = node_id
    return {"format": "branch-space", "version": 1, "nodes": nodes, "edges": edges}


@pytest.fixture(scope="module")
def synth():
    corpus = parse_corpus(synth_words(7919, 600))
    return corpus, train(corpus)


def _roots(words):
    """Empty root, a one-sound root, a two-sound root, and a root that is
    itself an input word (with longer input words under it, where one has any)."""
    whole = next((w for w in words if any(v[: len(w)] == w and v != w for v in words)), words[0])
    return [(), words[0][:1], words[-1][:2], whole]


@pytest.mark.parametrize("name", ["latin", "turkish", "synth"])
def test_filtered_flags_equal_the_full_lexicon_reference(request, name):
    if name == "synth":
        corpus, model = request.getfixturevalue("synth")
        depths = [(2, 2), (3, 2)]
    else:
        corpus = request.getfixturevalue(name)
        model = request.getfixturevalue(f"{name}_model")
        depths = [(4, 3), (6, 4)]
    words = list(corpus.words)
    flags = set()
    for root in _roots(words):
        for right, down in depths:
            space = enumerate_branch_space(model, root, right, down)
            want = _reference_branch_to_json(space, corpus.alphabet, words)
            assert branch_to_json(space, corpus.alphabet, words) == want
            assert branch_to_json(space, corpus.alphabet, iter(words)) == want
            assert branch_to_json(space, corpus.alphabet, (list(w) for w in words)) == want
            assert branch_to_json(space, corpus.alphabet, corpus.words) == want
            flags.update(n["flag"] for n in want["nodes"])
            dot = branch_to_dot(space, corpus.alphabet, (w for w in words))
            assert dot == branch_to_dot(space, corpus.alphabet, words)
            assert dot == branch_to_dot(space, corpus.alphabet, corpus.words)
    if name != "synth":
        assert flags == {"input-word", "partial-input-word", "pseudoword"}


def test_root_that_is_an_input_word_is_flagged_as_one(latin, latin_model):
    root = next(w for w in latin.words if any(v[: len(w)] == w and v != w for v in latin.words))
    space = enumerate_branch_space(latin_model, root, 3, 3)
    payload = branch_to_json(space, latin.alphabet, (w for w in latin.words))
    assert payload["nodes"][0]["flag"] == "input-word"
    assert payload == _reference_branch_to_json(space, latin.alphabet, latin.words)
