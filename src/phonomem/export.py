"""Branch-space export: graphviz DOT and a JSON node/edge equivalent.

Nodes are flagged against the training word list: an exact match is an
input word, a proper prefix of one is a partial input word, and anything
else is a pseudoword. Both formats come from one walk over the nodes.
"""

from __future__ import annotations

from typing import Iterable

from .alphabet import Alphabet, Word, detokenize
from .generator import BranchSpace

_PSEUDO = "pseudoword"


def _walk(space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word]):
    """Word strings, ids and flags in `space.nodes()` order, and edges as
    (source index, target index, down?) triples. Only input words that start
    with the root prefix, as every node does, can match or extend a node."""
    p = space.prefix
    input_set = {w for w in map(tuple, input_words) if w[: len(p)] == p}
    flag_of = {
        w[:k]: "partial-input-word" for w in input_set for k in range(max(1, len(p)), len(w))
    }
    flag_of.update(dict.fromkeys(input_set, "input-word"))
    symbols = alphabet.symbols
    words, flags, edges = [detokenize(p, alphabet)], [flag_of.get(p, _PSEUDO)], []
    # Each column lists every parent's children together in rank order, so a
    # child takes the next index and follows its rank k-1 sibling (k > 0).
    try:
        for i, node in enumerate(space.nodes()):
            word = words[i]
            # Were a pseudoword's child an input word or a proper prefix of
            # one, the pseudoword would be a proper prefix, unless it is empty.
            look = flags[i] != _PSEUDO or not word
            for child in node.children_right:
                j = len(words)
                words.append(word + symbols[child.word[-1]])
                flags.append(flag_of.get(child.word, _PSEUDO) if look else _PSEUDO)
                edges.append((j - 1, j, True) if child.depth_down else (i, j, False))
    except IndexError:  # an alphabet smaller than the model's
        detokenize(child.word, alphabet)  # raises the out-of-range ValueError
        raise
    spelled = set(words)
    root_id = "."
    while root_id in spelled:
        root_id += "."
    ids = [words[0] or root_id, *words[1:]]
    if len(spelled) < len(words):
        taken: set[str] = set()
        for k, word in enumerate(words):
            copy = 1
            while ids[k] in taken or (copy > 1 and ids[k] in spelled):
                copy += 1
                ids[k] = f"{word}#{copy}"
            taken.add(ids[k])
    return words, ids, flags, edges


def branch_to_json(
    space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word] = ()
) -> dict:
    """Node/edge arrays for the materialized space. Right edges join a word
    to its ground continuation; down edges join consecutive same-parent
    siblings. A node's id is its word string, except that an empty root's
    id is '.', or the shortest run of dots that no word spells, and a word
    string already taken by an earlier node (two sound sequences can spell
    the same text when a symbol has several characters) gets the first
    '#2', '#3', ... suffix that no word spells and no node holds."""
    words, ids, flags, edges = _walk(space, alphabet, input_words)
    nodes = [
        {"id": i, "word": w, "energy": n.energy, "col": n.col, "rank": n.depth_down, "flag": f}
        for n, w, i, f in zip(space.nodes(), words, ids, flags)
    ]
    edges = [{"src": ids[s], "dst": ids[t], "kind": ("right", "down")[d]} for s, t, d in edges]
    return {"format": "branch-space", "version": 1, "nodes": nodes, "edges": edges}


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_FLAG_ATTRS = {"input-word": ", shape=box, penwidth=2", "pseudoword": ", shape=ellipse",
               "partial-input-word": ", shape=box, style=dashed"}


def branch_to_dot(
    space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word] = ()
) -> str:
    """DOT digraph: columns advance left to right (one rank group per word
    length, ordered within it by the energy as its label prints it, then by
    word); down edges are dashed."""
    words, ids, flags, edges = _walk(space, alphabet, input_words)
    shown, names = words, ids
    # Words and ids are runs of symbols, dots and '#n' suffixes, so they
    # need escaping only when a symbol does.
    if any(c in s for s in alphabet.symbols for c in '\\"\n'):
        shown, names = list(map(_escape, words)), list(map(_escape, ids))
    energies = [f"{node.energy:.6g}" for node in space.nodes()]
    lines = ["digraph branch_space {", "  rankdir=LR;", '  node [fontname="monospace"];']
    start = 0
    for column in space.columns:
        end = start + len(column)
        lines.append("  { rank=same;")
        # Ties on energy and word keep node order, as a stable sort would.
        keys = zip(map(float, energies[start:end]), words[start:end], range(start, end))
        for _, _, j in sorted(keys):
            attrs = _FLAG_ATTRS[flags[j]]
            lines.append(f'    "{names[j]}" [label="{shown[j]}\\nE={energies[j]}"{attrs}];')
        lines.append("  }")
        start = end
    for s, t, down in edges:
        lines.append(f'  "{names[s]}" -> "{names[t]}"{" [style=dashed]" if down else ""};')
    lines.append("}")
    return "\n".join(lines) + "\n"
