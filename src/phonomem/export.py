"""Branch-space export: graphviz DOT and a JSON node/edge equivalent.

Nodes are flagged against the training word list: an exact match is an
input word, a proper prefix of one is a partial input word, and anything
else is a pseudoword.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable

from .alphabet import Alphabet, Word, detokenize
from .generator import BranchNode, BranchSpace


def branch_to_json(
    space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word] = ()
) -> dict:
    """Node/edge arrays for the materialized space. Right edges join a word
    to its ground continuation; down edges join consecutive same-parent
    siblings. A node's id is its word string, except that an empty root's
    id is '.', or the shortest run of dots that no word spells, and a word
    string already taken by an earlier node (two sound sequences can spell
    the same text when a symbol has several characters) gets the first
    '#2', '#3', ... suffix that no word spells and no node holds.

    Every node starts with the root prefix, so only the input words that
    start with it can match a node or have one as a proper prefix."""
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
        # A column lists each parent's children together in rank order,
        # so the node before a rank-k node (k > 0) is its rank k-1 sibling.
        if node.depth_down:
            edges.append({"src": above, "dst": node_id, "kind": "down"})
        elif node.parent is not None:
            edges.append({"src": names[node.parent], "dst": node_id, "kind": "right"})
        above = node_id
    return {"format": "branch-space", "version": 1, "nodes": nodes, "edges": edges}


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return f'"{escaped}"'


_FLAG_ATTRS = {
    "input-word": ", shape=box, penwidth=2",
    "partial-input-word": ", shape=box, style=dashed",
    "pseudoword": ", shape=ellipse",
}


def branch_to_dot(
    space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word] = ()
) -> str:
    """DOT digraph: columns advance left to right (one rank group per word
    length, ordered within it by the energy as its label prints it, then by
    word); down edges are dashed."""
    payload = branch_to_json(space, alphabet, input_words)
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
