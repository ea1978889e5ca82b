"""Both branch exports come from one walk over the nodes (words built from
the parent's string, flags inherited from pseudoword parents, ids and DOT
quoting on fast paths where they are exact) and must stay byte-identical to
the per-node exports they replaced, kept below as the reference."""

import json
import sys
from itertools import islice, zip_longest
from pathlib import Path

import pytest

from phonomem import (
    Alphabet,
    BranchNode,
    Corpus,
    InteractionModel,
    TrainConfig,
    detokenize,
    enumerate_branch_space,
    parse_corpus,
    train,
)
from phonomem.export import branch_to_dot, branch_to_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


def _reference_branch_to_json(space, alphabet, input_words=()):
    p = space.prefix
    input_set = {w for w in map(tuple, input_words) if w[: len(p)] == p}
    prefixes = {w[:k] for w in input_set for k in range(max(1, len(p)), len(w))}
    listed = list(space.nodes())
    words = [detokenize(node.word, alphabet) for node in listed]
    spelled = set(words)
    root_id = "."
    while root_id in spelled:
        root_id += "."
    names: dict[BranchNode, str] = {}
    taken: set[str] = set()
    nodes = []
    edges = []
    above = ""
    for node, word in zip(listed, words):
        node_id = word or root_id
        if node_id in taken:
            copy = 2
            while f"{word}#{copy}" in spelled or f"{word}#{copy}" in taken:
                copy += 1
            node_id = f"{word}#{copy}"
        names[node] = node_id
        taken.add(node_id)
        if node.word in input_set:
            flag = "input-word"
        elif node.word in prefixes:
            flag = "partial-input-word"
        else:
            flag = "pseudoword"
        nodes.append(
            {
                "id": node_id,
                "word": word,
                "energy": node.energy,
                "col": node.col,
                "rank": node.depth_down,
                "flag": flag,
            }
        )
        if node.depth_down:
            edges.append({"src": above, "dst": node_id, "kind": "down"})
        elif node.parent is not None:
            edges.append({"src": names[node.parent], "dst": node_id, "kind": "right"})
        above = node_id
    return {"format": "branch-space", "version": 1, "nodes": nodes, "edges": edges}


def _quote(s):
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


_FLAG_ATTRS = {
    "input-word": ", shape=box, penwidth=2",
    "partial-input-word": ", shape=box, style=dashed",
    "pseudoword": ", shape=ellipse",
}


def _reference_branch_to_dot(space, alphabet, input_words=()):
    payload = _reference_branch_to_json(space, alphabet, input_words)
    lines = [
        "digraph branch_space {",
        "  rankdir=LR;",
        '  node [fontname="monospace"];',
    ]
    listed = iter(payload["nodes"])
    for column in space.columns:
        lines.append("  { rank=same;")
        group = [(f"{n['energy']:.6g}", n) for n in islice(listed, len(column))]
        for energy, node in sorted(group, key=lambda g: (float(g[0]), g[1]["word"])):
            label = _quote(f"{node['word']}\nE={energy}")
            lines.append(
                f"    {_quote(node['id'])} [label={label}{_FLAG_ATTRS[node['flag']]}];"
            )
        lines.append("  }")
    for edge in payload["edges"]:
        style = " [style=dashed]" if edge["kind"] == "down" else ""
        lines.append(f"  {_quote(edge['src'])} -> {_quote(edge['dst'])}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def corpora(latin, turkish, latin_model, turkish_model):
    synth = parse_corpus(synth_words(1, 600))
    assert synth.alphabet.d == 120
    # '"' sorts before 'A' and its escape after it, so the untrained model's
    # all-equal energies show a word order taken from escaped text.
    quoted = parse_corpus(['a"b b"a "Ab Ab" a""b'])
    backslash = parse_corpus(["a\\b b\\a \\\\ab"])
    # parse_corpus splits on whitespace, so a newline symbol needs a hand-built alphabet.
    newline = Corpus(Alphabet(("a", "b\n", "c")), ((0, 1, 2), (1, 0, 0, 2), (2, 1, 1), (0, 2)))
    ch = parse_corpus(["ch cha hac ach"], digraph_table={"ch": "ch"})
    # (ch, #2) and (c, h, #2) spell 'ch#2', the first free-looking suffix for
    # the pair c, h; untrained, every word with rank sum <= 5 is in the space.
    ch_hash = parse_corpus(["c h #2 ch"], digraph_table={"ch": "ch", "#2": "#2"})
    dots = parse_corpus(["a.b .a"])
    return {
        "latin": (latin, latin_model),
        "turkish": (turkish, turkish_model),
        "latin_normalized": (latin, train(latin, TrainConfig(normalize="per-range-sum"))),
        "synth": (synth, train(synth)),
        "quoted": (quoted, train(quoted)),
        "quoted_untrained": (quoted, InteractionModel.untrained(quoted.alphabet)),
        "backslash": (backslash, train(backslash)),
        "newline": (newline, train(newline)),
        "ch": (ch, train(ch)),
        "ch_hash": (ch_hash, InteractionModel.untrained(ch_hash.alphabet)),
        "dots": (dots, train(dots)),
    }


def _first_difference(got, want):
    """(line number, got, wanted) at the first differing line, or None when
    the texts are equal; a full diff of two long texts takes minutes."""
    pairs = enumerate(zip_longest(got.split("\n"), want.split("\n")))
    return next(((k, a, b) for k, (a, b) in pairs if a != b), None)


@pytest.mark.parametrize("depths", [(2, 3), (4, 4), (6, 4), (6, 6)])
@pytest.mark.parametrize("name", [
    "latin", "turkish", "latin_normalized", "synth", "quoted", "quoted_untrained", "backslash",
    "newline", "ch", "ch_hash", "dots",
])
def test_exports_are_byte_identical_to_the_per_node_reference(corpora, name, depths):
    corpus, model = corpora[name]
    words = list(corpus.words)
    for root in ((), words[0][:1], words[-1][:2]):
        space = enumerate_branch_space(model, root, *depths)
        got = json.dumps(branch_to_json(space, corpus.alphabet, words), indent=1)
        want = json.dumps(_reference_branch_to_json(space, corpus.alphabet, words), indent=1)
        assert _first_difference(got, want) is None, root
        got = branch_to_dot(space, corpus.alphabet, iter(words))
        want = _reference_branch_to_dot(space, corpus.alphabet, words)
        assert _first_difference(got, want) is None, root


def test_alphabet_smaller_than_the_model_raises_the_reference_error(latin, latin_model):
    space = enumerate_branch_space(latin_model, (), 2, 3)
    small = Alphabet(latin.alphabet.symbols[:3])
    for export, reference in (
        (branch_to_json, _reference_branch_to_json),
        (branch_to_dot, _reference_branch_to_dot),
    ):
        with pytest.raises(ValueError, match="out of range") as want:
            reference(space, small, latin.words)
        with pytest.raises(ValueError) as got:
            export(space, small, latin.words)
        assert str(got.value) == str(want.value)
