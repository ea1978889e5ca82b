"""Every scorer reads the model's precomputed cross terms g0 - g and gives
the bits of the formula written out term by term, on edge models too; the
table is a private read-only array and the per-pair lists are built on
first use."""

import threading

import numpy as np
import pytest

from phonomem import (
    InteractionModel,
    enumerate_branch_space,
    energy_profile,
    load_model,
    log_chain_probability,
    ranked_next_sounds,
    save_model,
    word_energy,
)


def _hex(values):
    return [float(v).hex() for v in values]


class Reference:
    """The scorers' formula written out: each term is g0 - g[r-1][a][b],
    summed from 0.0 in range order."""

    def __init__(self, g0, g):
        self.g0, self.g = g0, np.array(g, dtype=np.float64)
        self.lists = self.g.tolist()
        self.r_max, self.d = self.g.shape[:2]

    def word_energy(self, w):
        total = 0.0
        for x in range(len(w)):
            for r in range(1, self.r_max + 1):
                if x + r <= len(w) - 1:
                    total += self.g0 - self.lists[r - 1][w[x]][w[x + r]]
        return total

    def energy_profile(self, w):
        gaps = [0.0] * max(0, len(w) - 1)
        for x in range(len(w)):
            for r in range(1, self.r_max + 1):
                if x + r <= len(w) - 1:
                    term = self.g0 - self.lists[r - 1][w[x]][w[x + r]]
                    for k in range(x, x + r):
                        gaps[k] += term
        return gaps

    def cross(self, prefix):
        cross = np.zeros(self.d)
        for r in range(1, min(self.r_max, len(prefix)) + 1):
            cross += self.g0 - self.g[r - 1][prefix[-r]]
        return cross

    def ranked(self, prefix):
        cross = self.cross(prefix)
        return self.word_energy(prefix) + cross, np.argsort(cross, kind="stable").tolist()

    def log_chain(self, prefix, continuation, beta):
        p, total = tuple(prefix), 0.0
        for s in continuation:
            scaled = -beta * self.cross(p)
            top = scaled.max()
            total += float(scaled[s] - top - np.log(np.exp(scaled - top).sum()))
            p += (s,)
        return total


EDGES = ("neg_zero_g0", "neg_zero_g", "overflow", "subnormal", "trained")


@pytest.fixture(scope="module")
def edge_models(latin, latin_model):
    shape = (3, latin.alphabet.d, latin.alphabet.d)
    rng = np.random.default_rng(13)
    tensors = {
        "neg_zero_g0": (-0.0, np.zeros(shape)),
        "neg_zero_g": (0.0, np.full(shape, -0.0)),
        # Sums of terms near 1e308 overflow to inf.
        "overflow": (1e308, rng.uniform(0.0, 1e308, shape)),
        "subnormal": (3e-320, rng.integers(1, 10_000, shape) * 5e-324),
        "trained": (latin_model.g0, latin_model.g),
    }
    return {
        name: (InteractionModel(latin.alphabet, 3, g0, g), Reference(g0, g))
        for name, (g0, g) in tensors.items()
    }


@pytest.mark.parametrize("name", EDGES)
def test_scorers_equal_the_written_out_formula_bit_for_bit(latin, edge_models, name):
    m, ref = edge_models[name]
    words = latin.words
    prefixes = sorted({w[:k] for w in words for k in range(5)})
    with np.errstate(all="ignore"):
        assert _hex(word_energy(m, w) for w in words) == _hex(ref.word_energy(w) for w in words)
        for w in words:
            assert _hex(energy_profile(m, w)) == _hex(ref.energy_profile(w))
        for p in prefixes:
            energies, order = ranked_next_sounds(m, p)
            expected, expected_order = ref.ranked(p)
            assert _hex(energies) == _hex(expected)
            assert order == expected_order
        for beta in (0.1, 1.0):
            got = [log_chain_probability(m, w[:1], w[1:], beta) for w in words]
            assert _hex(got) == _hex(ref.log_chain(w[:1], w[1:], beta) for w in words)


@pytest.mark.parametrize("name", EDGES)
@pytest.mark.parametrize("prefix_len", [0, 2])
def test_branch_columns_equal_the_written_out_formula(latin, edge_models, name, prefix_len):
    m, ref = edge_models[name]
    prefix = latin.words[0][:prefix_len]
    with np.errstate(all="ignore"):
        columns = enumerate_branch_space(m, prefix, 4, 3).columns
        words = [prefix]
        energies = _hex([ref.word_energy(prefix)])
        assert _hex(columns[0].energy) == energies
        for column in columns[1:]:
            grown, expected = [], []
            for parent, symbol, rank in zip(
                column.parent.tolist(), column.symbol.tolist(), column.rank.tolist()
            ):
                word = words[parent]
                cross = ref.cross(word)
                assert np.argsort(cross, kind="stable").tolist()[rank] == symbol
                expected.append(float.fromhex(energies[parent]) + float(cross[symbol]))
                grown.append(word + (symbol,))
            energies = _hex(expected)
            assert _hex(column.energy) == energies
            words = grown


def test_the_table_is_a_private_read_only_copy_of_the_cross_terms(latin):
    d = latin.alphabet.d
    g = np.arange(3 * d * d, dtype=np.float64).reshape(3, d, d)
    m = InteractionModel(latin.alphabet, 3, 2.5, g)
    terms = m._terms
    assert terms.shape == (3, d + 1, d) and not terms.flags.writeable
    assert not np.shares_memory(terms, g) and not np.shares_memory(terms, m.g)
    assert np.array_equal(terms[:, :d], 2.5 - g)
    assert set(_hex(terms[:, d].ravel())) == {(0.0).hex()}
    with pytest.raises(ValueError):
        terms[0, 0, 0] = 1.0
    g[:] = 7.0
    assert np.array_equal(terms[:, :d], 2.5 - m.g)


def test_a_negative_zero_term_is_stored_as_positive_zero(latin):
    m = InteractionModel.untrained(latin.alphabet, g0=-0.0)
    assert set(_hex(m._terms.ravel())) == {(0.0).hex()}


def test_nested_lists_are_built_on_first_use_and_once(latin, latin_model, tmp_path):
    fresh = InteractionModel(latin.alphabet, 3, latin_model.g0, latin_model.g)
    save_model(latin_model, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    for m in (fresh, loaded):
        assert "_term_lists" not in vars(m) and "_rows" not in vars(m)
    w = latin.words[0]
    word_energy(fresh, w)
    lists = vars(fresh)["_term_lists"]
    assert lists == fresh._terms[:, : fresh.d].tolist()
    word_energy(fresh, w)
    energy_profile(fresh, w)
    assert vars(fresh)["_term_lists"] is lists
    assert "_term_lists" not in vars(loaded)


def test_two_threads_scoring_one_fresh_model_agree(latin, latin_model):
    expected = [
        (word_energy(latin_model, w), energy_profile(latin_model, w)) for w in latin.words
    ]
    m = InteractionModel(latin.alphabet, 3, latin_model.g0, latin_model.g)
    barrier = threading.Barrier(2)
    results = [None, None]

    def score(i):
        barrier.wait()
        results[i] = [(word_energy(m, w), energy_profile(m, w)) for w in latin.words]

    threads = [threading.Thread(target=score, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results[0] == results[1] == expected
