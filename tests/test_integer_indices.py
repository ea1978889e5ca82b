"""A symbol index must be an integer: every per-call primitive raises
TypeError for a float in a prefix or continuation, where np.fromiter would
otherwise score 1.5 as 1, and still takes numpy integers and bools."""

import numpy as np
import pytest

from phonomem import (
    log_chain_probability,
    next_sound_energies,
    predict_completions,
    sequence_probability,
    word_energy,
)
from phonomem.alphabet import _check_indices

CALLS = {
    "log_chain_probability": lambda m, lex, p, c: log_chain_probability(m, p, c),
    "sequence_probability": lambda m, lex, p, c: sequence_probability(m, p, c),
    "word_energy": lambda m, lex, p, c: word_energy(m, p + c),
    "next_sound_energies": lambda m, lex, p, c: next_sound_energies(m, p + c),
    "predict_completions": lambda m, lex, p, c: predict_completions(m, p + c, lex),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("float_type", [float, np.float64])
@pytest.mark.parametrize(
    "prefix, continuation",
    [((2,), (1.5, 3)), ((2.9,), ()), ((2.9,), (1,)), ((), (1.0,)), ((2, 1.0), (3,))],
)
def test_a_float_index_is_a_type_error(latin, latin_model, name, float_type, prefix, continuation):
    def typed(word):
        return tuple(float_type(i) if isinstance(i, float) else i for i in word)

    with pytest.raises(TypeError):
        CALLS[name](latin_model, latin, typed(prefix), typed(continuation))


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("convert", [np.int64, np.uint8, np.intp])
def test_numpy_integers_score_as_ints(latin, latin_model, name, convert):
    prefix, continuation = (1, 0), (1, 1, 0)
    want = CALLS[name](latin_model, latin, prefix, continuation)
    got = CALLS[name](latin_model, latin, tuple(map(convert, prefix)), tuple(map(convert, continuation)))
    assert np.array_equal(got, want)


def test_bools_pass_the_check_and_numpy_bools_do_not():
    _check_indices((True, False, 1), 2)
    with pytest.raises(ValueError, match="out of range"):
        _check_indices((True,), 1)
    with pytest.raises(TypeError):
        _check_indices((np.True_,), 2)
