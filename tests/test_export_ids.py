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



def test_digraph_spelling_of_a_symbol_run_gets_its_own_id():
    corpus = parse_corpus(["ch cha hac ach"], digraph_table={"ch": "ch"})
    assert corpus.alphabet.symbols == ("ch", "a", "h", "c")
    model = train(corpus)
    for depths, count in (((2, 8), 21), ((3, 8), 81)):
        space = enumerate_branch_space(model, (), *depths)
        payload = branch_to_json(space, corpus.alphabet, corpus.words)
        ids = [node["id"] for node in payload["nodes"]]
        assert len(ids) == count and len(set(ids)) == count
        ends = [(e["src"], e["dst"]) for e in payload["edges"]]
        assert len(ends) == count - 1 and {dst for _, dst in ends} == set(ids[1:])
        assert {src for src, _ in ends} <= set(ids)
        by_id = {node["id"]: node for node in payload["nodes"]}
        # the symbol 'ch' is a one-sound input word; the pair c, h is not
        assert (by_id["ch"]["col"], by_id["ch"]["flag"]) == (1, "input-word")
        assert (by_id["ch#2"]["col"], by_id["ch#2"]["flag"]) == (2, "pseudoword")
        dot = branch_to_dot(space, corpus.alphabet, corpus.words)
        declared = [line.split(" [label=")[0] for line in dot.splitlines() if " [label=" in line]
        assert len(declared) == count and len(set(declared)) == count


def test_id_suffix_skips_text_that_a_node_spells():
    corpus = parse_corpus(["ch c h # 2"], digraph_table={"ch": "ch"})
    model = train(corpus)
    space = enumerate_branch_space(model, (), 3, 13)  # every word of up to 3 sounds
    payload = branch_to_json(space, corpus.alphabet, corpus.words)
    ids = [node["id"] for node in payload["nodes"]]
    assert len(ids) == 1 + 5 + 25 + 125 and len(set(ids)) == len(ids)
    by_id = {node["id"]: node for node in payload["nodes"]}
    # (ch, #, 2) spells 'ch#2', so the pair c, h takes the next free suffix
    assert by_id["ch#2"]["col"] == 3 and by_id["ch#3"]["col"] == 2
