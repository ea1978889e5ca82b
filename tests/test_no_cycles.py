"""No public call leaves a numpy or package object to the cyclic collector:
with the collector off, dropping every result frees it by reference
counting alone. A cycle the collector must find keeps the arrays its
objects hold alive until the next collection, which shows as peak memory.
(Arrays themselves are not tracked by the collector; the objects holding
them are.)"""

import gc
import inspect

import phonomem
from phonomem import (
    GibberishPolicy,
    TrainConfig,
    ablate,
    boundary_energy,
    build_inventory,
    count_pairs,
    detect_steady_state,
    detokenize,
    energy_profile,
    enumerate_branch_space,
    eval_count,
    gibberish,
    grow_greedy,
    load_corpus,
    load_embedded,
    load_model,
    log_chain_probability,
    mean_interaction,
    next_ranked,
    next_sound_distribution,
    next_sound_energies,
    normalize,
    parse_corpus,
    predict_completions,
    ranked_next_sounds,
    reset_eval_count,
    save_model,
    segment,
    sequence_probability,
    tokenize,
    train,
    verify_decay,
    word_energy,
)
from phonomem.cli import main
from phonomem.export import branch_to_dot, branch_to_json
from phonomem.generator import BranchNode

# Cycles by design: a node's parent and children_right link both ways (built
# only by nodes(), root or indexing).
_EXEMPT = (BranchNode,)


def _library_calls(latin, m, tmp_path):
    w = tokenize("servus", latin.alphabet)
    corpus_file = tmp_path / "words.txt"
    corpus_file.write_text("servus domina\nvia\n", encoding="utf-8")
    model_file = tmp_path / "lib.json"
    return {
        "normalize": lambda: normalize("Servus"),
        "build_inventory": lambda: build_inventory(["servus via"]),
        "parse_corpus": lambda: parse_corpus(["servus via"]),
        "load_corpus": lambda: load_corpus(corpus_file),
        "load_embedded": lambda: load_embedded("latin"),
        "tokenize": lambda: tokenize("servus", latin.alphabet),
        "detokenize": lambda: detokenize(w, latin.alphabet),
        "count_pairs": lambda: count_pairs(latin, 3),
        "train": lambda: (train(latin), train(latin, TrainConfig(normalize="per-range-sum"))),
        "verify_decay": lambda: verify_decay(m),
        "save_model": lambda: save_model(m, model_file),
        "load_model": lambda: (save_model(m, model_file), load_model(model_file)),
        "ablate": lambda: ablate(m, [1]),
        "mean_interaction": lambda: mean_interaction(m, 1),
        "word_energy": lambda: word_energy(m, w),
        "boundary_energy": lambda: boundary_energy(m, w[:2], w[2:]),
        "energy_profile": lambda: energy_profile(m, w),
        "next_sound_energies": lambda: next_sound_energies(m, w[:3]),
        "ranked_next_sounds": lambda: ranked_next_sounds(m, w[:3]),
        "next_sound_distribution": lambda: next_sound_distribution(m, w[:3]),
        "log_chain_probability": lambda: log_chain_probability(m, w[:1], w[1:]),
        "sequence_probability": lambda: sequence_probability(m, w[:1], w[1:]),
        "predict_completions": lambda: predict_completions(m, w[:1], latin),
        "grow_greedy": lambda: grow_greedy(m, w[:2], 5, frozenset({w[:3]})),
        "next_ranked": lambda: next_ranked(m, w[:2], 1),
        "gibberish": lambda: gibberish(m, w[:2], GibberishPolicy(12, seed=3)),
        "detect_steady_state": lambda: detect_steady_state(w + w[-2:], 3),
        "segment": lambda: segment(m, w, 0.0),
        "enumerate_branch_space": lambda: _space_uses(m, w),
        "eval_count": eval_count,
        "reset_eval_count": reset_eval_count,
        "branch_to_json": lambda: branch_to_json(
            enumerate_branch_space(m, w[:1], 3, 2), latin.alphabet, latin.words
        ),
        "branch_to_dot": lambda: branch_to_dot(
            enumerate_branch_space(m, w[:1], 3, 2), latin.alphabet, latin.words
        ),
    }


def _space_uses(m, w):
    space = enumerate_branch_space(m, w[:1], 3, 2)
    return space.columns, space.find(w[:3]), w[:2] in space, list(space.nodes())


def _cli_calls(tmp_path, monkeypatch):
    model_file = str(tmp_path / "cli.json")
    feed = iter(["0", "1", "q"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    return [
        ["train", "@latin", model_file],
        ["inspect", model_file, "--reciprocal"],
        ["energy", model_file, "servus", "--profile"],
        ["generate", model_file, "serv", "--steps", "5"],
        ["branch", model_file, "s", "--right", "3", "--down", "2", "--format", "dot"],
        ["branch", model_file, "s", "--right", "3", "--down", "2", "--format", "json"],
        ["segment", model_file, "servus", "--threshold", "0"],
        ["predict", model_file, "s", "--lexicon", "@latin", "--limit", "3"],
        ["explore", model_file, "se"],
    ]


def _cyclic_garbage(calls):
    """Objects that the collector alone could free after each call's result
    is dropped, when the calls run with the collector off."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for call in calls:
            call()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def _owned(obj):
    return (type(obj).__module__ or "").split(".")[0] in ("numpy", "phonomem")


def test_every_public_function_is_called(latin, latin_model, tmp_path):
    called = set(_library_calls(latin, latin_model, tmp_path))
    public = {name for name in phonomem.__all__ if inspect.isfunction(getattr(phonomem, name))}
    assert public <= called


def test_no_public_call_leaves_a_cycle(latin, latin_model, tmp_path, monkeypatch, capsys):
    library = _library_calls(latin, latin_model, tmp_path).values()
    codes = []
    argvs = _cli_calls(tmp_path, monkeypatch)
    cli = [lambda argv=argv: codes.append(main(argv)) for argv in argvs]
    garbage = _cyclic_garbage([*library, *cli])
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    left = {type(o).__qualname__ for o in garbage if _owned(o) and not isinstance(o, _EXEMPT)}
    assert not left
