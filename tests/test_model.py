import itertools
import math
import random
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonomem import (
    Alphabet,
    InteractionModel,
    ablate,
    boundary_energy,
    build_inventory,
    energy_profile,
    mean_interaction,
    next_sound_distribution,
    next_sound_energies,
    parse_corpus,
    sequence_probability,
    tokenize,
    train,
    word_energy,
)


def oracle_energy(g0, g, w, r_max):
    """Independent summation of the pair couplings (guard-style loop)."""
    total = 0.0
    for x in range(len(w)):
        for r in range(1, r_max + 1):
            if x + r <= len(w) - 1:
                total += g0 - g[r - 1][w[x]][w[x + r]]
    return total


def make_model(symbols, r_max, g0, entries=None):
    al = Alphabet(tuple(symbols))
    g = np.zeros((r_max, al.d, al.d))
    for (r, a, b), v in (entries or {}).items():
        g[r - 1][al.index_of(a)][al.index_of(b)] = v
    return al, InteractionModel(al, r_max, g0, g)


def test_word_energy_zero_model_unit_terms():
    al, m = make_model("atd", 3, 1.0)
    assert word_energy(m, (0, 1, 2, 0)) == 6.0  # 3 + 2 + 1 unit terms
    assert word_energy(m, (1,)) == 0.0
    assert word_energy(m, ()) == 0.0


def test_word_energy_toy_ordering():
    # R=1, g0=0, g_ta = g_at = 2, g_tt = 0.5 ranks tata below atta
    al, m = make_model("atd", 1, 0.0, {(1, "t", "a"): 2, (1, "a", "t"): 2, (1, "t", "t"): 0.5})
    e_tata = word_energy(m, tokenize("tata", al))
    e_atta = word_energy(m, tokenize("atta", al))
    assert e_tata == -6.0
    assert e_atta == -4.5
    assert e_tata < e_atta


def test_boundary_energy_equals_concat():
    al, m = make_model("atd", 3, 1.0, {(1, "a", "t"): 2, (2, "t", "d"): 1.5})
    w = tokenize("attad", al)
    assert boundary_energy(m, (), w) == word_energy(m, w)
    assert boundary_energy(m, w, ()) == word_energy(m, w)
    assert boundary_energy(m, w[:2], w[2:]) == word_energy(m, w)


def test_boundary_energy_toy_value():
    al, m = make_model("atd", 1, 0.0, {(1, "t", "a"): 2, (1, "a", "t"): 2, (1, "t", "t"): 0.5})
    assert boundary_energy(m, tokenize("ta", al), tokenize("ta", al)) == -6.0


@settings(max_examples=60)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=-1, max_value=2, allow_nan=False),
    st.data(),
)
def test_energy_matches_oracle_property(d, r_max, g0, data):
    symbols = tuple("abcd"[:d])
    al = Alphabet(symbols)
    g = np.array(
        data.draw(
            st.lists(
                st.lists(
                    st.lists(st.floats(min_value=0, max_value=3), min_size=d, max_size=d),
                    min_size=d,
                    max_size=d,
                ),
                min_size=r_max,
                max_size=r_max,
            )
        )
    )
    m = InteractionModel(al, r_max, g0, g)
    w = tuple(data.draw(st.lists(st.integers(0, d - 1), max_size=9)))
    cut = data.draw(st.integers(0, len(w)))
    assert word_energy(m, w) == pytest.approx(oracle_energy(g0, g, w, r_max), abs=1e-12)
    assert boundary_energy(m, w[:cut], w[cut:]) == word_energy(m, w)


def test_energy_profile_unit_scale():
    al, m = make_model("abcdef", 3, 1.0)
    w = tuple(range(6)) + (0, 1)  # 8 sounds
    gaps = energy_profile(m, w)
    assert gaps == [3.0, 5.0, 6.0, 6.0, 6.0, 5.0, 3.0]
    # 4-sound word: first and last gaps truncate to 3, middle to 4
    assert energy_profile(m, (0, 1, 2, 3)) == [3.0, 4.0, 3.0]
    assert energy_profile(m, (0,)) == []


def test_energy_profile_spanning_consistency():
    # sum of gap values counts each pair term once per gap it spans
    al, m = make_model("atd", 3, 1.0, {(1, "a", "t"): 2, (3, "a", "a"): 0.5})
    w = tokenize("atdat", al)
    gaps = energy_profile(m, w)
    per_span = 0.0
    for x in range(len(w)):
        for r in range(1, 4):
            if x + r < len(w):
                per_span += r * (m.g0 - m.g[r - 1][w[x]][w[x + r]])
    assert sum(gaps) == pytest.approx(per_span, abs=1e-12)


def test_energy_profile_trained_word_vs_reversal(turkish, turkish_model):
    w = tokenize("güzelsiniz", turkish.alphabet)
    forward = energy_profile(turkish_model, w)
    backward = energy_profile(turkish_model, w[::-1])
    assert sum(forward) / len(forward) < sum(backward) / len(backward)


def test_next_sound_energies_empty_prefix_and_unit_case():
    al, m = make_model("atd", 3, 1.0)
    assert list(next_sound_energies(m, ())) == [0.0, 0.0, 0.0]
    # prefix of 3 sounds: three unit cross terms per candidate
    es = next_sound_energies(m, (0, 1, 2))
    assert np.allclose(es - word_energy(m, (0, 1, 2)), 3.0)


def test_next_sound_energies_match_full_evaluation(latin, latin_model):
    prefix = tokenize("servā", latin.alphabet)
    es = next_sound_energies(latin_model, prefix)
    full = [boundary_energy(latin_model, prefix, (s,)) for s in range(latin_model.d)]
    assert np.allclose(es, full, atol=1e-9)


def test_next_sound_argmin_after_training(toy, toy_model):
    prefix = tokenize("tat", toy.alphabet)
    es = next_sound_energies(toy_model, prefix)
    assert int(np.argmin(es)) == toy.alphabet.index_of("a")


def test_distribution_uniform_at_beta_zero():
    al, m = make_model("atd", 3, 1.0)
    dist = next_sound_distribution(m, (0, 1), beta=0.0)
    assert np.allclose(dist.probabilities, 1 / 3)


def test_distribution_saturates_at_large_beta(toy, toy_model):
    prefix = tokenize("tat", toy.alphabet)
    dist = next_sound_distribution(toy_model, prefix, beta=1e6)
    assert dist.probabilities[toy.alphabet.index_of("a")] >= 1 - 1e-6


def test_distribution_hand_softmax():
    # energies (0, ln 2) at beta=1 give probabilities (2/3, 1/3)
    ln2 = math.log(2.0)
    al, m = make_model("ab", 1, ln2, {(1, "a", "a"): ln2, (1, "a", "b"): 0.0})
    dist = next_sound_distribution(m, (0,), beta=1.0)
    assert dist.energies == pytest.approx([0.0, ln2], abs=1e-15)
    assert dist.probabilities == pytest.approx([2 / 3, 1 / 3], abs=1e-12)


def test_distribution_sums_to_one_over_beta_sweep(latin, latin_model):
    prefix = tokenize("in", latin.alphabet)
    for beta in np.logspace(-6, 6, 25):
        dist = next_sound_distribution(latin_model, prefix, beta=float(beta))
        assert abs(float(dist.probabilities.sum()) - 1.0) < 1e-9


def test_distribution_rejects_negative_beta():
    al, m = make_model("ab", 1, 1.0)
    with pytest.raises(ValueError):
        next_sound_distribution(m, (), beta=-0.1)


def test_sequence_probability_empty_and_uniform():
    al, m = make_model("atd", 3, 1.0)
    assert sequence_probability(m, (0,), (), beta=1.0) == 1.0
    assert sequence_probability(m, (), (0, 1, 2), beta=1.0) == pytest.approx(3.0**-3, rel=1e-12)


def test_sequence_probability_morphology_ordering(latin, latin_model):
    serva = tokenize("servā", latin.alphabet)
    p_rum = sequence_probability(latin_model, serva, tokenize("rum", latin.alphabet), 1.0)
    p_mur = sequence_probability(latin_model, serva, tokenize("mur", latin.alphabet), 1.0)
    assert p_rum > p_mur


def test_ablate_all_leaves_baseline_terms(turkish_model):
    m0 = ablate(turkish_model, {1, 2, 3})
    n = 7
    expected = m0.g0 * sum(max(0, n - r) for r in (1, 2, 3))
    assert word_energy(m0, tuple(range(7))) == expected
    assert np.all(m0.g == 0)


def test_ablate_empty_and_copy_semantics(turkish_model):
    same = ablate(turkish_model, set())
    assert np.array_equal(same.g, turkish_model.g)
    partial = ablate(turkish_model, {2, 3})
    assert np.array_equal(partial.g[0], turkish_model.g[0])
    assert np.all(partial.g[1] == 0) and np.all(partial.g[2] == 0)
    assert not np.all(turkish_model.g[1] == 0)  # original untouched
    with pytest.raises(ValueError, match="outside"):
        ablate(turkish_model, {0})
    with pytest.raises(ValueError, match="outside"):
        ablate(turkish_model, {4})


def test_mean_interaction_trivial():
    al, m = make_model("atd", 2, 1.0)
    assert mean_interaction(m, 1) == 0.0
    ones = InteractionModel(al, 1, 1.0, np.ones((1, 3, 3)))
    assert mean_interaction(ones, 1) == 1.0
    with pytest.raises(ValueError):
        mean_interaction(m, 3)


def test_energy_bilinear_in_tensors():
    # E_{A+B}(w) == E_A(w) + E_B(w) - E_0(w), the g0 baseline counted once
    rng = np.random.default_rng(3)
    al = Alphabet(("a", "b", "c"))
    for _ in range(25):
        a = rng.uniform(0, 2, size=(3, 3, 3))
        b = rng.uniform(0, 2, size=(3, 3, 3))
        g0 = float(rng.uniform(-1, 2))
        w = tuple(rng.integers(0, 3, size=rng.integers(0, 9)))
        e_sum = word_energy(InteractionModel(al, 3, g0, a + b), w)
        e_a = word_energy(InteractionModel(al, 3, g0, a), w)
        e_b = word_energy(InteractionModel(al, 3, g0, b), w)
        e_zero = word_energy(InteractionModel.untrained(al, 3, g0), w)
        assert e_sum == pytest.approx(e_a + e_b - e_zero, abs=1e-9)


def test_g0_shift_preserves_argmin(latin, latin_model):
    shifted = InteractionModel(
        latin_model.alphabet, latin_model.r_max, latin_model.g0 + 2.5, latin_model.g
    )
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randrange(0, 9)
        w = tuple(rng.randrange(latin_model.d) for _ in range(n))
        pair_count = sum(max(0, len(w) - r) for r in range(1, latin_model.r_max + 1))
        assert word_energy(shifted, w) == pytest.approx(
            word_energy(latin_model, w) + 2.5 * pair_count, abs=1e-9
        )
        a = np.argmin(next_sound_energies(latin_model, w))
        b = np.argmin(next_sound_energies(shifted, w))
        assert a == b


def test_scaling_matches_beta_rescale(latin, latin_model):
    c = 3.0
    base = InteractionModel(latin_model.alphabet, latin_model.r_max, 0.0, latin_model.g)
    scaled = InteractionModel(latin_model.alphabet, latin_model.r_max, 0.0, c * latin_model.g)
    prefix = tokenize("serv", latin.alphabet)
    assert word_energy(scaled, prefix) == pytest.approx(c * word_energy(base, prefix), rel=1e-12)
    d1 = next_sound_distribution(base, prefix, beta=1.0)
    d2 = next_sound_distribution(scaled, prefix, beta=1.0 / c)
    assert np.allclose(d1.probabilities, d2.probabilities, atol=1e-12)


def test_exact_enumeration_boltzmann_and_chain():
    # d=3 toy; brute-force partition function and chain-probability optimum
    corpus = parse_corpus(["tata d"], source="toy")
    m = train(corpus)
    d = corpus.alphabet.d
    for n in (2, 4, 6):
        energies = [word_energy(m, w) for w in itertools.product(range(d), repeat=n)]
        z = sum(math.exp(-e) for e in energies)
        assert abs(sum(math.exp(-e) / z for e in energies) - 1.0) < 1e-9
    words4 = list(itertools.product(range(d), repeat=4))
    ground = min(words4, key=lambda w: (word_energy(m, w), w))
    beta = 1e3
    probs = {w: sequence_probability(m, (), w, beta) for w in words4}
    assert probs[ground] == max(probs.values())


def test_model_validation():
    al = build_inventory(["ata"])
    with pytest.raises(ValueError, match="shape"):
        InteractionModel(al, 2, 1.0, np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="negative"):
        InteractionModel(al, 1, 1.0, np.full((1, 2, 2), -0.1))
    with pytest.raises(ValueError, match="finite"):
        InteractionModel(al, 1, 1.0, np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError, match="r_max"):
        InteractionModel(al, 0, 1.0, np.zeros((0, 2, 2)))


def test_model_tensors_read_only(latin_model):
    with pytest.raises(ValueError):
        latin_model.g[0, 0, 0] = 5.0


@pytest.mark.parametrize("g0", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_g0(g0):
    al = build_inventory(["ata"])
    with pytest.raises(ValueError, match="g0 must be finite"):
        InteractionModel(al, 1, g0, np.zeros((1, 2, 2)))


def _mutable_parts(value):
    if isinstance(value, (dict, list, set)):
        yield value
    if isinstance(value, Mapping):
        for v in value.values():
            yield from _mutable_parts(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _mutable_parts(v)


def test_model_meta_read_only(turkish_model):
    with pytest.raises(TypeError):
        turkish_model.meta["created"] = "now"
    with pytest.raises(TypeError):
        turkish_model.meta["corpus"]["num_words"] = 0
    assert isinstance(turkish_model.meta["corpus"]["words"], tuple)
    assert not list(_mutable_parts(turkish_model.meta))


def test_model_meta_shares_nothing_with_caller_or_ablate(turkish_model):
    al = build_inventory(["ata"])
    meta = {"corpus": {"words": ["ata"]}, "ablated": [1]}
    m = InteractionModel(al, 1, 1.0, np.zeros((1, 2, 2)), meta)
    meta["corpus"]["words"].append("tat")
    meta["corpus"]["d"] = 5
    meta["extra"] = True
    assert m.meta == {"corpus": {"words": ("ata",)}, "ablated": (1,)}
    partial = ablate(turkish_model, {2})
    assert partial.meta["ablated"] == (2,)
    assert "ablated" not in turkish_model.meta
    assert not list(_mutable_parts(partial.meta))
