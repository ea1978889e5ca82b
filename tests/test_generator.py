import random
from collections import Counter

import numpy as np
import pytest

from phonomem import (
    BranchSpace,
    GibberishPolicy,
    SectorExhaustedError,
    ablate,
    boundary_energy,
    detect_steady_state,
    detokenize,
    energy_profile,
    enumerate_branch_space,
    eval_count,
    gibberish,
    grow_greedy,
    next_ranked,
    next_sound_energies,
    parse_corpus,
    predict_completions,
    reset_eval_count,
    segment,
    sequence_probability,
    tokenize,
    train,
    word_energy,
)


def test_grow_greedy_zero_steps(latin, latin_model):
    prefix = tokenize("serv", latin.alphabet)
    assert grow_greedy(latin_model, prefix, 0) == prefix


def test_grow_greedy_zero_model_repeats_first_symbol(turkish_model):
    m0 = ablate(turkish_model, {1, 2, 3})
    w = grow_greedy(m0, (3,), 5)
    assert w == (3, 0, 0, 0, 0, 0)


def test_grow_greedy_recovers_training_word():
    corpus = parse_corpus(["tata"])
    m = train(corpus)
    w = grow_greedy(m, tokenize("t", corpus.alphabet), 3)
    assert detokenize(w, corpus.alphabet) == "tata"
    # brute-force oracle: every step's argmin over full boundary energies
    prefix = tokenize("t", corpus.alphabet)
    for _ in range(3):
        best = min(
            (boundary_energy(m, prefix, (s,)), s) for s in range(m.d)
        )[1]
        assert grow_greedy(m, prefix, 1)[-1] == best
        prefix = prefix + (best,)


def test_grow_greedy_penalties_and_exhaustion(toy, toy_model):
    prefix = tokenize("ta", toy.alphabet)
    free = grow_greedy(toy_model, prefix, 1)
    penalized = grow_greedy(toy_model, prefix, 1, penalties={free})
    assert penalized != free and penalized[:-1] == prefix
    all_children = {prefix + (s,) for s in range(toy_model.d)}
    with pytest.raises(SectorExhaustedError, match="sector exhausted"):
        grow_greedy(toy_model, prefix, 1, penalties=all_children)


def test_grow_greedy_never_returns_penalized(latin, latin_model):
    prefix = tokenize("s", latin.alphabet)
    rng = random.Random(5)
    penalties = set()
    word = grow_greedy(latin_model, prefix, 4)
    for k in range(1, len(word) + 1):
        penalties.add(word[:k])
    grown = grow_greedy(latin_model, prefix, 4, penalties=penalties)
    assert grown not in penalties
    for _ in range(20):
        n = rng.randrange(1, 5)
        penalties.add(tuple(rng.randrange(latin_model.d) for _ in range(n)))
    assert grow_greedy(latin_model, prefix, 4, penalties=penalties) not in penalties


def test_grow_greedy_rejects_negative_steps(toy_model):
    with pytest.raises(ValueError):
        grow_greedy(toy_model, (), -1)


def test_next_ranked_matches_greedy_and_tie_break(turkish_model):
    m0 = ablate(turkish_model, {1, 2, 3})
    assert next_ranked(m0, (4,), 0) == 0  # greedy = first symbol on flat model
    assert next_ranked(m0, (4,), 1) == 1  # pure tie-break order
    with pytest.raises(ValueError):
        next_ranked(m0, (), turkish_model.d)
    with pytest.raises(ValueError):
        next_ranked(m0, (), -1)


def test_next_ranked_equals_penalized_regrow(latin, latin_model):
    # rank k candidate == greedy choice once ranks 0..k-1 are excluded
    prefix = tokenize("in", latin.alphabet)
    excluded = set()
    for k in range(6):
        s = next_ranked(latin_model, prefix, k)
        regrow = grow_greedy(latin_model, prefix, 1, penalties=excluded)
        assert regrow[-1] == s
        excluded.add(prefix + (s,))


def test_next_ranked_two_word_sector():
    corpus = parse_corpus(["kin kid"])
    m = train(corpus)
    al = corpus.alphabet
    prefix = tokenize("ki", al)
    ground = next_ranked(m, prefix, 0)
    runner_up = next_ranked(m, prefix, 1)
    assert al.symbols[ground] == "n"  # tie broken by first-appearance order
    assert al.symbols[runner_up] == "d"  # the other trained word's continuation


def test_down_chain_completeness(latin, latin_model):
    for prefix in (tokenize("s", latin.alphabet), tokenize("insu", latin.alphabet)):
        chain = [next_ranked(latin_model, prefix, k) for k in range(latin_model.d)]
        assert sorted(chain) == list(range(latin_model.d))
        energies = next_sound_energies(latin_model, prefix)
        chained = [float(energies[s]) for s in chain]
        assert chained == sorted(chained)


def test_work_accounting_exact(latin, latin_model):
    prefix = tokenize("s", latin.alphabet)
    reset_eval_count()
    grow_greedy(latin_model, prefix, 9)
    assert eval_count() == 9 * latin_model.d


def test_branch_space_down_one_is_greedy_path(latin, latin_model):
    prefix = tokenize("s", latin.alphabet)
    space = enumerate_branch_space(latin_model, prefix, 5, 1)
    assert [len(col) for col in space.columns] == [1] * 6
    path = [col[0].word for col in space.columns]
    assert path[-1] == grow_greedy(latin_model, prefix, 5)


def test_branch_space_flat_model_one_step(toy, toy_model):
    m0 = ablate(toy_model, {1, 2, 3})
    space = enumerate_branch_space(m0, (0,), 1, 3)
    children = space.columns[1]
    assert [n.word[-1] for n in children] == [0, 1, 2]  # alphabet order on ties
    assert [n.depth_down for n in children] == [0, 1, 2]


def test_branch_space_structure_and_energies(latin, latin_model):
    prefix = tokenize("in", latin.alphabet)
    space = enumerate_branch_space(latin_model, prefix, 4, 4)
    root = space.root
    assert root.word == prefix and root.depth_down == 0
    for node in space.nodes():
        if node.parent is not None:
            assert node.word[:-1] == node.parent.word
            assert node.energy == pytest.approx(
                word_energy(latin_model, node.word), abs=1e-9
            )
        siblings = node.children_right
        energies = [c.energy for c in siblings]
        assert energies == sorted(energies)
        assert [c.depth_down for c in siblings] == list(range(len(siblings)))


def test_branch_space_find_agrees_with_materialization(latin, latin_model):
    prefix = tokenize("in", latin.alphabet)
    space = enumerate_branch_space(latin_model, prefix, 4, 4)
    materialized = {node.word for node in space.nodes()}
    fresh = enumerate_branch_space(latin_model, prefix, 4, 4)
    for word in materialized:
        assert fresh.find(word) is not None
    # words outside the budgets are rejected
    assert fresh.find(tokenize("se", latin.alphabet)) is None
    too_long = grow_greedy(latin_model, prefix, 5)
    assert fresh.find(too_long) is None
    assert (prefix in fresh) and (too_long not in fresh)


@pytest.mark.parametrize("word, bad", [((0, 99), 99), ((0, -1), -1)])
def test_branch_space_find_rejects_out_of_range_index(latin_model, word, bad):
    space = enumerate_branch_space(latin_model, (), 4, 4)
    with pytest.raises(ValueError, match=rf"symbol index {bad} out of range 0\.\.17"):
        space.find(word)


def test_branch_space_contains_s_family(latin, latin_model):
    prefix = tokenize("s", latin.alphabet)
    space = enumerate_branch_space(latin_model, prefix, 12, 35)
    for w, surface in zip(latin.words, latin.surface_words()):
        if surface.startswith("s"):
            assert space.find(w) is not None, surface


def test_branch_space_rejects_bad_depths(toy_model):
    with pytest.raises(ValueError):
        enumerate_branch_space(toy_model, (), 0, 3)
    with pytest.raises(ValueError):
        enumerate_branch_space(toy_model, (), 3, 0)


def test_gibberish_zero_p_next_equals_greedy(turkish, turkish_model):
    prefix = tokenize("güzel", turkish.alphabet)
    for seed in (0, 7, 123):
        w, gaps = gibberish(
            turkish_model, prefix, GibberishPolicy(max_length=len(prefix) + 12, p_next=0.0, seed=seed)
        )
        assert w == grow_greedy(turkish_model, prefix, 12)
        assert gaps == energy_profile(turkish_model, w)


def test_gibberish_deterministic_per_seed(turkish, turkish_model):
    prefix = tokenize("ki", turkish.alphabet)
    policy = GibberishPolicy(max_length=30, p_next=0.2, seed=42)
    first, _ = gibberish(turkish_model, prefix, policy)
    second, _ = gibberish(turkish_model, prefix, policy)
    assert first == second
    other, _ = gibberish(turkish_model, prefix, GibberishPolicy(max_length=30, p_next=0.2, seed=43))
    assert other != first  # different seed explores differently


def test_gibberish_ablated_frequencies(turkish_model):
    # flat model: lowest two symbols appear with the die's (0.8, 0.2) split
    m0 = ablate(turkish_model, {1, 2, 3})
    n = 10_000
    w, _ = gibberish(m0, (), GibberishPolicy(max_length=n, p_next=0.2, seed=7))
    counts = Counter(w)
    assert set(counts) == {0, 1}
    p = 0.2
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(counts[1] / n - p) <= 3 * sigma


def test_gibberish_policy_validation():
    with pytest.raises(ValueError):
        GibberishPolicy(max_length=0)
    with pytest.raises(ValueError):
        GibberishPolicy(max_length=5, p_next=1.5)


def test_detect_steady_state_basic():
    al = parse_corpus(["ab"]).alphabet
    w = tokenize("abababab", al)
    assert detect_steady_state(w, 4) == 2
    assert detect_steady_state((0, 1, 0, 1, 0), 4) == 2
    assert detect_steady_state(tuple(range(8)), 4) is None
    assert detect_steady_state((0, 0), 4) == 1
    assert detect_steady_state((0,), 4) is None
    with pytest.raises(ValueError):
        detect_steady_state(w, 0)


def test_greedy_turkish_reaches_steady_state(turkish, turkish_model):
    prefix = tokenize("güzel", turkish.alphabet)
    w = grow_greedy(turkish_model, prefix, 60)
    assert detect_steady_state(w, 20) is not None


def test_segment_threshold_extremes(turkish, turkish_model):
    w = tokenize("güzelsiniz", turkish.alphabet)
    gaps = energy_profile(turkish_model, w)
    high = max(gaps) + 1 if max(gaps) > 0 else 1.0
    assert segment(turkish_model, w, high) == [w]
    m0 = ablate(turkish_model, {1, 2, 3})  # every gap positive on the flat model
    assert segment(m0, w, 0.0) == [(s,) for s in w]
    with pytest.raises(ValueError):
        segment(turkish_model, w, -1.0)


def test_segment_isolates_high_energy_region(turkish, turkish_model):
    prefix = tokenize("güzel", turkish.alphabet)
    w, gaps = gibberish(turkish_model, prefix, GibberishPolicy(max_length=40, p_next=0.2, seed=20))
    assert max(gaps) > 2.0
    parts = segment(turkish_model, w, 2.0)
    assert len(parts) >= 2
    assert tuple(s for p in parts for s in p) == w
    total_before = word_energy(turkish_model, w)
    total_after = sum(word_energy(turkish_model, p) for p in parts)
    assert total_after < total_before
    # severed terms oracle: energy change equals minus the severed pair sum
    cuts = []
    offset = 0
    for p in parts[:-1]:
        offset += len(p)
        cuts.append(offset)
    severed = 0.0
    for x in range(len(w)):
        for r in range(1, turkish_model.r_max + 1):
            if x + r < len(w) and any(x < c <= x + r for c in cuts):
                severed += turkish_model.g0 - turkish_model.g[r - 1][w[x]][w[x + r]]
    assert total_after - total_before == pytest.approx(-severed, abs=1e-12)


def test_predict_completions_full_word_and_empty(latin, latin_model):
    prefix = tokenize("ovis", latin.alphabet)
    ranked = predict_completions(latin_model, prefix, latin, beta=1.0)
    assert ranked == [(prefix, 1.0)]
    assert predict_completions(latin_model, tokenize("vī", latin.alphabet), latin) == []


def test_predict_completions_beta_zero_orders_by_length(latin, latin_model):
    prefix = tokenize("serv", latin.alphabet)
    ranked = predict_completions(latin_model, prefix, latin, beta=0.0)
    d = latin_model.d
    for w, p in ranked:
        assert p == pytest.approx(d ** -(len(w) - len(prefix)), rel=1e-12)
    lengths = [len(w) for w, _ in ranked]
    assert lengths == sorted(lengths)


def test_predict_completions_latin_pasto(latin, latin_model):
    al = latin.alphabet
    prefix = tokenize("pāstō", al)
    ranked = predict_completions(latin_model, prefix, latin, beta=1.0)
    found = {detokenize(w, al) for w, _ in ranked}
    assert found == {
        "pāstōrem", "pāstōris", "pāstōri", "pāstōre", "pāstōrēs", "pāstōrum", "pāstōribus",
    }
    # at least one corpus form beats 100 random continuations of equal length
    best_word, best_prob = ranked[0]
    k = len(best_word) - len(prefix)
    rng = random.Random(11)
    for _ in range(100):
        cont = tuple(rng.randrange(al.d) for _ in range(k))
        assert best_prob >= sequence_probability(latin_model, prefix, cont, 1.0)


def test_predict_completions_chain_consistency(latin, latin_model):
    # probabilities equal the telescoping product of next-sound conditionals
    prefix = tokenize("in", latin.alphabet)
    ranked = predict_completions(latin_model, prefix, latin, beta=1.0)
    assert ranked
    for w, p in ranked:
        ref = 1.0
        cur = prefix
        for s in w[len(prefix):]:
            es = np.array([boundary_energy(latin_model, cur, (t,)) for t in range(latin_model.d)])
            weights = np.exp(-(es - es.min()))
            ref *= float(weights[s] / weights.sum())
            cur = cur + (s,)
        assert p == pytest.approx(ref, rel=1e-12)


def test_predict_completions_rejects_foreign_lexicon(latin_model):
    other = parse_corpus(["xyz"])
    with pytest.raises(ValueError, match="alphabet"):
        predict_completions(latin_model, (), other)


def test_segment_rejects_nan_threshold(turkish, turkish_model):
    w = tokenize("güzelkadın", turkish.alphabet)
    with pytest.raises(ValueError, match="threshold"):
        segment(turkish_model, w, float("nan"))


@pytest.mark.parametrize("prefix", [(18,), (-1,), (19,), (0, 18), (0, -1)])
@pytest.mark.parametrize("entry", ["BranchSpace", "grow_greedy", "gibberish", "next_ranked"])
def test_growth_refuses_out_of_range_prefix_indices(latin_model, entry, prefix):
    assert latin_model.d == 18
    start = {
        "BranchSpace": lambda: BranchSpace(latin_model, prefix, 2, 2),
        "grow_greedy": lambda: grow_greedy(latin_model, prefix, 2),
        "gibberish": lambda: gibberish(latin_model, prefix, GibberishPolicy(4)),
        "next_ranked": lambda: next_ranked(latin_model, prefix, 0),
    }[entry]
    with pytest.raises(ValueError, match="out of range"):
        start()
