"""The shared candidate-ranking primitive, early stopping in gibberish, and
log-space completion ranking, each checked against a brute-force oracle."""

import math
import random

import pytest

from phonomem import (
    GibberishPolicy,
    ablate,
    boundary_energy,
    detokenize,
    gibberish,
    log_chain_probability,
    predict_completions,
    ranked_next_sounds,
    sequence_probability,
    tokenize,
    word_energy,
)
from phonomem.cli import main


def _brute_ranking(m, prefix):
    return sorted(range(m.d), key=lambda s: (word_energy(m, prefix + (s,)), s))


def test_ranked_next_sounds_matches_brute_force(latin, latin_model, turkish_model):
    flat = ablate(turkish_model, {1, 2, 3})  # every candidate ties
    for m in (latin_model, turkish_model, flat):
        for w in latin.words[:10]:
            prefix = tuple(s % m.d for s in w[:3])
            energies, order = ranked_next_sounds(m, prefix)
            assert order == _brute_ranking(m, prefix)
            assert all(type(s) is int for s in order)
            assert list(energies) == pytest.approx(
                [word_energy(m, prefix + (s,)) for s in range(m.d)], abs=1e-9
            )
    assert ranked_next_sounds(flat, (3, 1))[1] == list(range(flat.d))


def _oracle_stop_tau(m, prefix, policy):
    rng = random.Random(policy.seed)
    w = tuple(prefix)
    while len(w) < policy.max_length:
        rank = 1 if (rng.random() < policy.p_next and m.d > 1) else 0
        s = _brute_ranking(m, w)[rank]
        if boundary_energy(m, w, (s,)) - word_energy(m, w) > policy.stop_tau:
            break
        w += (s,)
    return w


@pytest.mark.parametrize("tau", [-1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_gibberish_stop_tau_matches_oracle(turkish, turkish_model, tau):
    for word in turkish.words[:12]:
        prefix = word[:2]
        for seed in range(3):
            policy = GibberishPolicy(len(prefix) + 25, p_next=0.3, seed=seed, stop_tau=tau)
            got, _ = gibberish(turkish_model, prefix, policy)
            assert got == _oracle_stop_tau(turkish_model, prefix, policy)


def test_gibberish_stop_tau_rejects_nan():
    with pytest.raises(ValueError, match="stop_tau"):
        GibberishPolicy(max_length=5, stop_tau=math.nan)


def test_cli_stop_tau_is_library_gibberish(turkish, turkish_model, tmp_path, capsys):
    path = str(tmp_path / "turkish.json")
    assert main(["train", "@turkish", path]) == 0
    capsys.readouterr()
    al = turkish.alphabet
    for text, tau, seed in [("güzel", 0.0, 0), ("ki", 1.0, 3), ("", 2.0, 5), ("ke", -1.0, 1)]:
        prefix = tokenize(text, al)
        policy = GibberishPolicy(len(prefix) + 40, p_next=0.2, seed=seed, stop_tau=tau)
        word, _ = gibberish(turkish_model, prefix, policy)
        assert main(["generate", path, text, "--stop-tau", str(tau), "--seed", str(seed),
                     "--max-steps", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert word == _oracle_stop_tau(turkish_model, prefix, policy)
        assert lines[0] == detokenize(word, al)
        assert float(lines[1].split("=")[1]) == pytest.approx(word_energy(turkish_model, word))


def _brute_log_chain(m, prefix, continuation, beta):
    total, cur = 0.0, tuple(prefix)
    for s in continuation:
        scaled = [-beta * word_energy(m, cur + (t,)) for t in range(m.d)]
        top = max(scaled)
        total += scaled[s] - top - math.log(sum(math.exp(x - top) for x in scaled))
        cur += (s,)
    return total


def test_log_chain_probability_matches_brute_force(latin, latin_model):
    for w in latin.words:
        for beta in (0.0, 1.0, 7.5):
            got = log_chain_probability(latin_model, w[:2], w[2:], beta)
            assert got == pytest.approx(_brute_log_chain(latin_model, w[:2], w[2:], beta),
                                        rel=1e-12, abs=1e-12)
            assert sequence_probability(latin_model, w[:2], w[2:], beta) == pytest.approx(
                math.exp(got), rel=1e-12
            )


def test_predict_order_follows_log_probability_past_underflow(latin, latin_model):
    beta = 60.0
    ranked = predict_completions(latin_model, (), latin, beta=beta)
    oracle = {w: _brute_log_chain(latin_model, (), w, beta) for w in latin.words}
    # Rounding merges chains whose sums differ only by float summation order.
    expected = sorted(latin.words, key=lambda w: (-round(oracle[w], 6), w))
    assert [w for w, _ in ranked] == expected
    underflowed = [detokenize(w, latin.alphabet) for w, p in ranked if p == 0.0]
    assert sorted(underflowed) == ["ovem", "pāstor"]
    assert all(math.isfinite(oracle[w]) for w in latin.words)


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_bad_beta_rejected_everywhere(latin, latin_model, beta):
    with pytest.raises(ValueError, match="beta"):
        predict_completions(latin_model, (99,), latin, beta=beta)  # matches nothing
    with pytest.raises(ValueError, match="beta"):
        log_chain_probability(latin_model, (), (0,), beta)
