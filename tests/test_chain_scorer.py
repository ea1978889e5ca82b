"""The array chain scorer behind predict_completions and
log_chain_probability equals the word-by-word chain bit for bit."""

import math
import random
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phonomem import Corpus, TrainConfig, parse_corpus, predict_completions, train
from phonomem import model as model_module
from phonomem.model import (
    _check_beta,
    _log_chain_probabilities,
    eval_count,
    log_chain_probability,
    next_sound_energies,
    reset_eval_count,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


def _reference_log_chain(m, prefix, continuation, beta=1.0):
    """The per-word loop log_chain_probability ran before the array scorer."""
    _check_beta(beta)
    p = tuple(prefix)
    total = 0.0
    for s in continuation:
        scaled = -beta * next_sound_energies(m, p, base=0.0)
        top = scaled.max()
        total += float(scaled[s] - top - np.log(np.exp(scaled - top).sum()))
        p += (s,)
    return total


@pytest.fixture(scope="module")
def synth():
    corpus = parse_corpus(synth_words(1, 600))
    return corpus, train(corpus)


@pytest.fixture(scope="module")
def latin_normalized(latin):
    # Non-integer couplings, so a change in summation order shows.
    return latin, train(latin, TrainConfig(normalize="per-range-sum"))


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def turkish_r5(turkish):
    return turkish, train(turkish, r_max=5)


def _cases(request, name):
    if name in ("synth", "latin_normalized", "turkish_r5"):
        return request.getfixturevalue(name)
    return request.getfixturevalue(name), request.getfixturevalue(f"{name}_model")


@pytest.mark.parametrize("name", ["latin", "turkish", "synth", "latin_normalized", "turkish_r5"])
@pytest.mark.parametrize("beta", [0.0, 1.0, 60.0])
def test_batch_scorer_is_bit_identical_to_the_word_loop(request, name, beta):
    corpus, model = _cases(request, name)
    if name == "synth":
        assert model.d == 120
    words = sorted(set(corpus.words))
    prefixes = [(), words[0][:1], words[1][:2], words[-1][:2], (model.d - 1,) * 3]
    for p in prefixes:
        matches = [w for w in words if w[: len(p)] == p]
        expected = [_reference_log_chain(model, p, w[len(p) :], beta) for w in matches]
        reset_eval_count()
        got = _log_chain_probabilities(model, matches, len(p), beta).tolist()
        assert eval_count() == model.d * sum(len(w) - len(p) for w in matches)
        assert _bits(got) == _bits(expected)
        one_by_one = [log_chain_probability(model, p, w[len(p) :], beta) for w in matches]
        assert _bits(one_by_one) == _bits(expected)
        ranked = predict_completions(model, p, corpus, beta)
        want = sorted(zip(matches, expected), key=lambda item: (-item[1], item[0]))
        assert ranked == [(w, math.exp(logp)) for w, logp in want]
    assert predict_completions(model, (model.d - 1,) * 3, corpus, beta) == []


def test_one_word_case_scores_any_prefix(latin_model):
    for p, c in [((), ()), ((3,), ()), ((), (0, 1, 2)), ((5, 4, 3, 2, 1), (0, 7))]:
        reset_eval_count()
        got = log_chain_probability(latin_model, p, c)
        assert eval_count() == latin_model.d * len(c)
        assert _bits([got]) == _bits([_reference_log_chain(latin_model, p, c)])


def test_out_of_range_symbol_is_a_value_error(latin_model):
    d = latin_model.d
    for p, c in [((), (d,)), ((0,), (1, d)), ((d,), (0,)), ((), (-1,))]:
        with pytest.raises(ValueError, match="out of range"):
            log_chain_probability(latin_model, p, c)


def test_block_size_changes_no_total(monkeypatch, turkish, turkish_model):
    words = list(turkish.words)
    whole = _log_chain_probabilities(turkish_model, words, 1, 1.0).tolist()
    for block in (1, turkish_model.d * 5, turkish_model.d * 40):
        monkeypatch.setattr(model_module, "_BLOCK", block)
        reset_eval_count()
        assert _bits(_log_chain_probabilities(turkish_model, words, 1, 1.0)) == _bits(whole)
        assert eval_count() == turkish_model.d * sum(len(w) - 1 for w in words)


def test_prefix_that_is_a_lexicon_word_scores_exactly_zero(latin, latin_model):
    words = sorted(set(latin.words), key=len)
    prefix = next(w for w in words if sum(v[: len(w)] == w for v in words) > 1)
    matches = [w for w in latin.words if w[: len(prefix)] == prefix]
    assert prefix in matches and len(matches) > 1
    expected = [_reference_log_chain(latin_model, prefix, w[len(prefix) :]) for w in matches]
    got = _log_chain_probabilities(latin_model, matches, len(prefix), 1.0)
    assert _bits(got) == _bits(expected)
    assert _bits([got[matches.index(prefix)]]) == [(0.0).hex()]
    ranked = predict_completions(latin_model, prefix, latin)
    assert ranked[0] == (prefix, 1.0)


def test_start_past_every_word_scores_nothing(turkish, turkish_model):
    words = list(turkish.words)
    start = max(map(len, words)) + 2
    reset_eval_count()
    got = _log_chain_probabilities(turkish_model, words, start, 1.0)
    assert eval_count() == 0
    assert _bits(got) == _bits([_reference_log_chain(turkish_model, w, ()) for w in words])
    assert _bits(got) == [(0.0).hex()] * len(words)


def test_empty_word_list(latin_model):
    for start in (0, 3):
        reset_eval_count()
        got = _log_chain_probabilities(latin_model, [], start, 1.0)
        assert got.shape == (0,) and eval_count() == 0


def _windowed_reference(m, word, start, beta=1.0):
    """_reference_log_chain of word[start:] after word[:start], each step given
    only the r_max sounds before it (all that its cross terms read), so a
    40,000-sound word takes linear time; the terms are summed in the same
    order from 0.0, so the bits are the same."""
    total = 0.0
    for k in range(start, len(word)):
        total += _reference_log_chain(m, word[max(0, k - m.r_max) : k], word[k : k + 1], beta)
    return total


def _traced_peak_mib(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_word_lexicon(latin):
    """700 Latin words (the list 20 times over) and one 40,000-sound word."""
    rng = random.Random(0)
    long_word = tuple(rng.randrange(latin.alphabet.d) for _ in range(40_000))
    return Corpus(latin.alphabet, tuple(latin.words) * 20 + (long_word,))


@pytest.fixture(scope="module")
def latin_r200(latin):
    """An r_max-200 Latin model and the Latin list 100 times over (3,500 words)."""
    return train(latin, r_max=200), Corpus(latin.alphabet, tuple(latin.words) * 100)


def test_one_long_word_keeps_memory_linear(latin_model, long_word_lexicon):
    ranked, peak = _traced_peak_mib(lambda: predict_completions(latin_model, (), long_word_lexicon))
    assert peak < 16
    expected = {w: _windowed_reference(latin_model, w, 0) for w in set(long_word_lexicon.words)}
    assert len(ranked) == len(long_word_lexicon.words)
    assert [(w, float(p).hex()) for w, p in ranked] == [
        (w, math.exp(expected[w]).hex()) for w, _ in ranked
    ]
    got = _log_chain_probabilities(latin_model, long_word_lexicon.words, 0, 1.0)
    assert _bits(got) == _bits([expected[w] for w in long_word_lexicon.words])


def test_long_range_model_keeps_memory_linear(latin_r200):
    model, lexicon = latin_r200
    ranked, peak = _traced_peak_mib(lambda: predict_completions(model, (), lexicon))
    assert peak < 16
    expected = {w: _reference_log_chain(model, (), w) for w in set(lexicon.words)}
    assert [(w, float(p).hex()) for w, p in ranked] == [
        (w, math.exp(expected[w]).hex()) for w, _ in ranked
    ]
    got = _log_chain_probabilities(model, lexicon.words, 0, 1.0)
    assert _bits(got) == _bits([expected[w] for w in lexicon.words])


@pytest.mark.parametrize("beta", [0.0, 1.0, 60.0])
def test_ranges_past_the_longest_word_add_nothing(latin, beta):
    # r_max 12 lies past the 10-sound longest word, so ranges 10-12 never
    # couple two sounds of a word: every split equals the word-by-word chain.
    model = train(latin, r_max=12)
    words = sorted(set(latin.words))
    assert max(map(len, words)) == 10
    for start in range(max(map(len, words)) + 2):
        got = _log_chain_probabilities(model, words, start, beta)
        expected = [_reference_log_chain(model, w[:start], w[start:], beta) for w in words]
        assert _bits(got) == _bits(expected)
        for w, want in zip(words, expected):
            if start <= len(w):
                assert _bits([log_chain_probability(model, w[:start], w[start:], beta)]) == _bits([want])
    for p in sorted({w[:k] for w in words for k in range(len(w) + 1)}):
        matches = [w for w in words if w[: len(p)] == p]
        want = [_reference_log_chain(model, p, w[len(p) :], beta) for w in matches]
        ranked = predict_completions(model, p, latin, beta)
        by_logp = sorted(zip(matches, want), key=lambda item: (-item[1], item[0]))
        assert ranked == [(w, math.exp(logp)) for w, logp in by_logp]
