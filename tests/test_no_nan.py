"""The scorers never return NaN from finite inputs: where float64 overflow
leaves a probability undefined they raise ValueError; every other result
keeps its bits (test_cross_term_table.py pins them). Any RuntimeWarning is
an error here (pyproject's filterwarnings), so each call below also checks
that numpy does not warn."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonomem import (
    Alphabet,
    Corpus,
    InteractionModel,
    log_chain_probability,
    next_sound_distribution,
    predict_completions,
    sequence_probability,
    tokenize,
    train,
)


@pytest.fixture(scope="module")
def huge_g0_model(latin):
    return train(latin, g0=1e308)


PROBES = (
    "log_chain_probability",
    "sequence_probability",
    "next_sound_distribution",
    "predict_completions",
)


@pytest.mark.parametrize("probe", PROBES)
def test_each_overflow_probe_raises_value_error(latin, latin_model, huge_g0_model, probe):
    w = tokenize("servus", latin.alphabet)
    calls = {
        # beta = 1e308 scales a negative cross term past float64.
        "log_chain_probability": lambda: log_chain_probability(latin_model, (), w, 1e308),
        "sequence_probability": lambda: sequence_probability(latin_model, (), w, 1e308),
        # g0 = 1e308: two cross terms already sum past float64.
        "next_sound_distribution": lambda: next_sound_distribution(huge_g0_model, w[:2]),
        "predict_completions": lambda: predict_completions(huge_g0_model, w[:1], latin),
    }
    with pytest.raises(ValueError, match="energies overflow float64"):
        calls[probe]()


def test_saturated_distribution_keeps_its_bits_without_a_warning(latin, latin_model):
    prefix = tokenize("serv", latin.alphabet)
    dist = next_sound_distribution(latin_model, prefix, beta=1e308)
    with np.errstate(all="ignore"):
        weights = np.exp(-1e308 * (dist.energies - dist.energies.min()))
    assert dist.probabilities.tobytes() == (weights / weights.sum()).tobytes()
    assert sorted(dist.probabilities.tolist()) == [0.0] * (latin.alphabet.d - 1) + [1.0]


@pytest.mark.parametrize("scale", [200, 20], ids=["finite", "-inf"])
def test_chain_total_near_float64_max_neither_warns_nor_raises(scale):
    # After a, b is favoured by one unit, so each step of a word of a's costs
    # beta: the total of 49 steps is -49 * beta, finite at MAX / 200 and
    # past -MAX, so -inf, at MAX / 20. Every row's shift stays finite, so
    # neither raises, and the scorer's one errstate per call keeps the
    # second's overflow to -inf from warning.
    m = InteractionModel(Alphabet(("a", "b")), 1, 0.0, np.array([[[0.0, 1.0], [0.0, 0.0]]]))
    beta = sys.float_info.max / scale
    total = 0.0
    for _ in range(49):
        total -= beta
    got = log_chain_probability(m, (0,), (0,) * 49, beta)
    assert got.hex() == total.hex() and (got == -np.inf) == (scale == 20)


def test_a_table_that_overflows_to_minus_inf_builds_without_a_warning():
    # g0 - g = -1e308 - 8e307 is past -float64 max.
    g = np.array([[[0.0, 8e307], [0.0, 0.0]]])
    m = InteractionModel(Alphabet(("a", "b")), 1, -1e308, g)
    assert m._terms[0, 0].tolist() == [-1e308, -np.inf]
    with pytest.raises(ValueError, match="energies overflow float64"):
        log_chain_probability(m, (0,), (1,))


def _no_nan_or_value_error(call):
    try:
        values = np.asarray(call(), dtype=float)
    except ValueError:
        return
    assert not np.isnan(values).any()


_HUGE = st.floats(min_value=-1e308, max_value=1e308) | st.sampled_from([1e308, -1e308, 0.0])
_BETA = st.floats(min_value=0.0, max_value=1e308) | st.sampled_from([1e308, 0.0])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["trained", "synthetic"]),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
    _HUGE,
    _BETA,
    st.data(),
)
def test_scorers_return_no_nan_or_raise_value_error(kind, d, r_max, g0, beta, data):
    al = Alphabet(tuple("abcde"[:d]))
    words = data.draw(
        st.lists(st.lists(st.integers(0, d - 1), min_size=1, max_size=7), min_size=1, max_size=8)
    )
    lexicon = Corpus(al, words)
    if kind == "trained":
        m = train(lexicon, r_max=r_max, g0=g0)
    else:
        size = r_max * d * d
        g = data.draw(st.lists(st.floats(0.0, 1e308), min_size=size, max_size=size))
        # The table g0 - g itself overflows to -inf below g0 = -1.8e308 + g:
        # the model stores it without a warning, and the scorers meet it
        # without NaN.
        m = InteractionModel(al, r_max, g0, np.reshape(g, (r_max, d, d)))
    word = tuple(data.draw(st.sampled_from(words)))
    cut = data.draw(st.integers(0, len(word)))
    prefix, rest = word[:cut], word[cut:]
    for call in (
        lambda: next_sound_distribution(m, prefix, beta).energies,
        lambda: next_sound_distribution(m, prefix, beta).probabilities,
        lambda: log_chain_probability(m, prefix, rest, beta),
        lambda: sequence_probability(m, prefix, rest, beta),
        lambda: [p for _, p in predict_completions(m, prefix, lexicon, beta)],
    ):
        _no_nan_or_value_error(call)
