"""Next-sound choices are determined by the tail: candidates rank by their
cross terms with the last r_max sounds, so the prefix energy decides no
order. Models keep their tensor as a private read-only copy, padded with a
g0 row per range whose index stands for no sound and adds 0.0."""

import sys
from pathlib import Path

import numpy as np
import pytest

from phonomem import (
    InteractionModel,
    TrainConfig,
    grow_greedy,
    parse_corpus,
    ranked_next_sounds,
    train,
    word_energy,
)
from phonomem import model as model_module
from phonomem.model import _blocks, _cross_energies, eval_count, reset_eval_count

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


@pytest.fixture(scope="module")
def cases(latin, turkish, latin_model, turkish_model):
    synth = parse_corpus(synth_words(1, 600))
    assert synth.alphabet.d == 120
    return {
        "latin": (latin, latin_model),
        "turkish": (turkish, turkish_model),
        "latin_normalized": (latin, train(latin, TrainConfig(normalize="per-range-sum"))),
        "synth": (synth, train(synth)),
        # Prefix energies near 1e16 round cross-term gaps of a few units away.
        "latin_huge_g0": (latin, train(latin, g0=1e15)),
    }


@pytest.mark.parametrize(
    "name", ["latin", "turkish", "latin_normalized", "synth", "latin_huge_g0"]
)
def test_prefixes_sharing_a_tail_rank_and_grow_alike(cases, name):
    corpus, m = cases[name]
    tails = sorted({w[-m.r_max :] for w in corpus.words if len(w) >= m.r_max})[:40]
    assert tails
    shifted = 0
    for tail in tails:
        order = ranked_next_sounds(m, tail)[1]
        grown = grow_greedy(m, tail, 8)[len(tail) :]
        for lead in [(0,), (m.d - 1,) * 3, tails[0] + tails[-1]]:
            prefix = lead + tail
            shifted += word_energy(m, prefix) != word_energy(m, tail)
            assert ranked_next_sounds(m, prefix)[1] == order
            assert grow_greedy(m, prefix, 8)[len(prefix) :] == grown
    assert shifted > len(tails)


def test_model_keeps_a_private_copy_of_its_tensor(latin):
    d = latin.alphabet.d
    g = np.arange(3 * d * d, dtype=np.float64).reshape(3, d, d)
    m = InteractionModel(latin.alphabet, 3, 1.0, g)
    assert not np.shares_memory(m.g, g)
    before = m.g.copy()
    g[:] = 7.0
    assert np.array_equal(m.g, before)
    assert m.g.shape == (3, d, d) and m.g.dtype == np.float64
    assert not m.g.flags.writeable
    with pytest.raises(ValueError):
        m.g[0, 0, 0] = 1.0


@pytest.mark.parametrize("name", ["latin", "latin_normalized", "synth"])
def test_index_d_stands_for_no_sound_and_adds_zero(cases, name):
    _, m = cases[name]
    d, r_max = m.d, m.r_max
    assert _cross_energies(m, [d] * r_max).tolist() == [0.0] * d
    for s in (0, d - 1):
        near = _cross_energies(m, [s])
        padded = _cross_energies(m, [s] + [d] * (r_max - 1))
        assert [e.hex() for e in padded.tolist()] == [e.hex() for e in near.tolist()]
    rows = _cross_energies(m, [np.array([0, d]), np.array([d, d]), np.array([d, 1])], (2,))
    assert rows[1].tolist() == _cross_energies(m, [d, d, 1]).tolist()


@pytest.mark.parametrize("rows, scored", [((), 1), ((5,), 5), ((0,), 0)])
def test_cross_energies_counts_d_per_scored_row(latin_model, rows, scored):
    m = latin_model
    back = [np.zeros(rows, dtype=np.intp) if rows else 0] * m.r_max
    reset_eval_count()
    _cross_energies(m, back, rows)
    assert eval_count() == m.d * scored
    assert type(eval_count()) is int


@pytest.mark.parametrize("n", [0, 1, 7])
@pytest.mark.parametrize("block", ["1", "d", "3d+1"])
def test_blocks_cover_rows_in_order_within_the_block_size(monkeypatch, latin_model, block, n):
    d = latin_model.d
    size = {"1": 1, "d": d, "3d+1": 3 * d + 1}[block]
    monkeypatch.setattr(model_module, "_BLOCK", size)
    for width in (1, d, 2 * d):
        spans = [(b.start, b.stop, b.step) for b in _blocks(n, width)]
        starts = [0] + [hi for _, hi, _ in spans]
        assert [lo for lo, _, _ in spans] == starts[:-1] and starts[-1] == n
        assert all(step is None for _, _, step in spans)
        assert all(0 < hi - lo <= max(1, size // width) for lo, hi, _ in spans)
