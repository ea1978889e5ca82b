import re

from phonomem import TrainConfig, ablate, detokenize, enumerate_branch_space, tokenize, train
from phonomem.export import branch_to_dot, branch_to_json


def edges_from_children(space, alphabet):
    """Reference edge list: each parent's right edge to its ground child,
    then a down edge per consecutive pair of its children."""
    def name(node):
        return detokenize(node.word, alphabet) or "."

    edges = []
    for node in space.nodes():
        children = node.children_right
        if children:
            edges.append({"src": name(node), "dst": name(children[0]), "kind": "right"})
        for above, below in zip(children, children[1:]):
            edges.append({"src": name(above), "dst": name(below), "kind": "down"})
    return edges


def test_edges_match_children_right_latin(latin, latin_model):
    space = enumerate_branch_space(latin_model, tokenize("in", latin.alphabet), 4, 4)
    payload = branch_to_json(space, latin.alphabet, latin.words)
    assert payload["edges"] == edges_from_children(space, latin.alphabet)


def test_edges_match_children_right_flat_toy(toy, toy_model):
    flat = ablate(toy_model, {1, 2, 3})
    for prefix in ((), (0,)):
        space = enumerate_branch_space(flat, prefix, 3, 3)
        payload = branch_to_json(space, toy.alphabet, toy.words)
        assert payload["edges"] == edges_from_children(space, toy.alphabet)


def test_dot_rank_groups_order_by_printed_energy_then_word(latin):
    # Per-range-sum energies that are equal in real arithmetic differ in
    # their last bits; the printed label, not that noise, decides the order.
    model = train(latin, TrainConfig(normalize="per-range-sum"))
    space = enumerate_branch_space(model, (), 6, 6)
    text = branch_to_dot(space, latin.alphabet, latin.words)
    node = re.compile(r'^    "[^"]*" \[label="([^"]*)\\nE=(\S+)"', re.M)
    groups = text.split("  { rank=same;")[1:]
    assert len(groups) == len(space.columns)
    ties = 0
    for group, column in zip(groups, space.columns):
        rows = [(float(e), w) for w, e in node.findall(group)]
        assert len(rows) == len(column)
        assert rows == sorted(rows)
        ties += sum(a[0] == b[0] for a, b in zip(rows, rows[1:]))
    assert ties  # the export holds equal labels, so the word order is exercised
    assert text.index('"ilsu"') < text.index('"nsnl"')
