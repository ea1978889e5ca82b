import math
import warnings

import numpy as np
import pytest

from phonomem import Alphabet, Corpus, InteractionModel, predict_completions
from phonomem import model as model_module


def test_an_overflow_in_the_last_block_is_refused(monkeypatch):
    # After "b a", the candidate b takes -1.5e308 from each range, a sum past
    # -float64 max; no other tail reaches two such terms. Only the lexicon's
    # last word has that tail, at its last step, so with one row per block
    # the one overflowing row is scored in the call's last block.
    g = np.zeros((2, 2, 2))
    g[0, 0, 1] = g[1, 1, 1] = 1.5e308
    m = InteractionModel(Alphabet(("a", "b")), 2, 0.0, g)
    words = ((0, 0, 0, 0), (0, 0, 0), (0, 1, 0, 1))
    monkeypatch.setattr(model_module, "_BLOCK", m.d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        finite = predict_completions(m, (0,), Corpus(m.alphabet, words[:-1]))
        assert len(finite) == 2 and all(math.isfinite(p) for _, p in finite)
        with pytest.raises(ValueError, match="energies overflow float64"):
            predict_completions(m, (0,), Corpus(m.alphabet, words))
