"""Branch-space export: graphviz DOT and a JSON node/edge equivalent.

Nodes are flagged against the training word list: an exact match is an
input word, a proper prefix of one is a partial input word, and anything
else is a pseudoword. Both formats come from one walk over the column
arrays of the space; neither builds a BranchNode.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .alphabet import Alphabet, Word, Words, _check_indices, detokenize
from .generator import BranchSpace

_PSEUDO = "pseudoword"


def _walk(space: BranchSpace, alphabet: Alphabet, input_words: Iterable[Word]):
    """Word strings, ids, flags and energies in `space.nodes()` order, and
    edges as (source index, target index, down?) triples, read from the
    column arrays without building nodes. Only input words that start with
    the root prefix, as every node does, can match or extend a node; a
    `Words` (such as `Corpus.words`) serves them from its index, and any
    other iterable is wrapped in one first. An alphabet whose symbols are
    not the model's raises ValueError."""
    p = space.prefix
    if not isinstance(input_words, Words):
        input_words = Words(map(tuple, input_words))
    input_set = set(input_words.starting_with(p))
    # No node holds more than len(p) + max_depth_right sounds: no longer prefix is looked up.
    lo, hi = max(1, len(p)), len(p) + space.max_depth_right + 1
    flag_of = {w[:k]: "partial-input-word" for w in input_set for k in range(lo, min(len(w), hi))}
    flag_of.update(dict.fromkeys(input_set, "input-word"))
    symbols = alphabet.symbols
    words, flags, edges = [detokenize(p, alphabet)], [flag_of.get(p, _PSEUDO)], []
    if alphabet.d < space.model.d:  # raise the out-of-range error of the first node past it
        _check_indices(np.concatenate([c.symbol for c in space.columns[1:]]).tolist(), alphabet.d)
    if alphabet.symbols != space.model.alphabet.symbols:
        raise ValueError("alphabet does not match the model alphabet")
    # Only flagged nodes and an empty root keep their sound tuple: a
    # pseudoword with a flagged child would be a proper prefix, unless empty.
    looked = {0: p} if flags[0] != _PSEUDO or not words[0] else {}
    start = 0  # index of the previous column's first node
    # Each column lists every parent's children together in rank order, so a
    # child takes the next index and follows its rank k-1 sibling (k > 0).
    for column in space.columns[1:]:
        first, parents = len(words), (column.parent + start).tolist()
        syms, ranks = column.symbol.tolist(), column.rank.tolist()
        words += [words[i] + symbols[s] for i, s in zip(parents, syms)]
        flags += [_PSEUDO] * len(syms)
        new = range(first, len(words))
        edges += [(j - 1, j, True) if r else (i, j, False) for j, i, r in zip(new, parents, ranks)]
        for j, i, s in zip(new, parents, syms):
            if i in looked and flag_of.get(looked[i] + (s,), _PSEUDO) != _PSEUDO:
                looked[j] = looked[i] + (s,)
                flags[j] = flag_of[looked[j]]
        start = first
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
    energies = np.concatenate([column.energy for column in space.columns]).tolist()
    return words, ids, flags, energies, edges


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
    words, ids, flags, energies, edges = _walk(space, alphabet, input_words)
    at = [(k, rank) for k, c in enumerate(space.columns) for rank in c.rank.tolist()]
    nodes = [
        {"id": i, "word": w, "energy": e, "col": k, "rank": r, "flag": f}
        for w, i, e, (k, r), f in zip(words, ids, energies, at, flags)
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
    words, ids, flags, energies, edges = _walk(space, alphabet, input_words)
    shown, names = words, ids
    # Words and ids are runs of symbols, dots and '#n' suffixes, so they
    # need escaping only when a symbol does.
    if any(c in s for s in alphabet.symbols for c in '\\"\n'):
        shown, names = list(map(_escape, words)), list(map(_escape, ids))
    energies = [f"{e:.6g}" for e in energies]
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
