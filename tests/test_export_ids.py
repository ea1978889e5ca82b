"""Branch-export node ids are unique, also when a symbol spells the empty
root's usual id '.'."""

from phonomem import enumerate_branch_space, parse_corpus, train
from phonomem.export import branch_to_dot, branch_to_json


def test_dot_symbol_does_not_share_the_root_id():
    corpus = parse_corpus(["a.b .a"])
    model = train(corpus)
    space = enumerate_branch_space(model, (), 2, 3)
    payload = branch_to_json(space, corpus.alphabet, corpus.words)
    ids = [node["id"] for node in payload["nodes"]]
    assert len(ids) == 10 and len(set(ids)) == 10
    root = payload["nodes"][0]
    assert root["word"] == "" and root["id"] == ".."
    assert {"src": "..", "dst": "a", "kind": "right"} in payload["edges"]
    assert {e["src"] for e in payload["edges"]} | {e["dst"] for e in payload["edges"]} <= set(ids)
    dot = branch_to_dot(space, corpus.alphabet, corpus.words)
    assert dot.count('\n    "." [') == 1 and dot.count('\n    ".." [') == 1

