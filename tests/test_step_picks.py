"""Growth steps pick from the cross terms without sorting them all: greedy
growth takes the first minimum, gibberish's rank-1 step the second sound of
a stable sort, and BranchSpace.find counts the said sound's rank. Each pick
equals what the full order of ranked_next_sounds gives, on edge models
whose sums tie or overflow too. The public per-call primitives reject a
symbol index outside 0..d-1."""

import sys
from pathlib import Path

import numpy as np
import pytest

from phonomem import (
    GibberishPolicy,
    InteractionModel,
    energy_profile,
    enumerate_branch_space,
    gibberish,
    grow_greedy,
    load_embedded,
    next_ranked,
    next_sound_distribution,
    next_sound_energies,
    parse_corpus,
    predict_completions,
    ranked_next_sounds,
    segment,
    train,
    word_energy,
)
from phonomem.model import _cross_energies, eval_count, reset_eval_count

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402

MODELS = (
    "neg_zero_g0", "neg_zero_g", "overflow", "subnormal", "trained", "untrained", "synth",
)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def cases(latin, latin_model):
    """name -> (model, words); the first five are the edge models of the
    cross-term table tests."""
    shape = (3, latin.alphabet.d, latin.alphabet.d)
    rng = np.random.default_rng(13)
    tensors = {
        "neg_zero_g0": (-0.0, np.zeros(shape)),
        "neg_zero_g": (0.0, np.full(shape, -0.0)),
        # Sums of terms near 1e308 overflow to inf, so some terms tie at inf.
        "overflow": (1e308, rng.uniform(0.0, 1e308, shape)),
        "subnormal": (3e-320, rng.integers(1, 10_000, shape) * 5e-324),
        "trained": (latin_model.g0, latin_model.g),
    }
    built = {
        name: (InteractionModel(latin.alphabet, 3, g0, g), latin.words)
        for name, (g0, g) in tensors.items()
    }
    built["untrained"] = (InteractionModel.untrained(latin.alphabet), latin.words)
    synth = parse_corpus(synth_words(1, 600))
    assert synth.alphabet.d == 120
    built["synth"] = (train(synth), synth.words[:60])
    return built


def _prefixes(words):
    return sorted({w[:k] for w in words for k in range(5)})


@pytest.mark.parametrize("name", MODELS)
def test_each_pick_equals_the_full_stable_order(cases, name):
    m, words = cases[name]
    with np.errstate(all="ignore"):
        for p in _prefixes(words):
            energies, order = ranked_next_sounds(m, p)
            assert grow_greedy(m, p, 1)[-1] == order[0]
            policy = GibberishPolicy(len(p) + 1, p_next=1.0)
            assert gibberish(m, p, policy)[0][-1] == order[1]
            space = enumerate_branch_space(m, p, 1, m.d)
            for s in range(m.d):
                node = space.find(p + (s,))
                assert node.depth_down == order.index(s)
                assert _hex([node.energy]) == _hex([energies[s]])


@pytest.mark.parametrize("g0", [1.0, 1e308])
def test_rows_that_tie_throughout_rank_by_symbol_index(latin, g0):
    # All terms equal g0; at g0=1e308 any two of them sum to inf.
    m = InteractionModel.untrained(latin.alphabet, g0=g0)
    tied = (0, 0)
    with np.errstate(all="ignore"):
        cross = ranked_next_sounds(m, tied, base=0.0)[0]
        assert len(set(cross.tolist())) == 1 and np.isinf(cross[0]) == (g0 > 1)
        assert grow_greedy(m, tied, 1)[-1] == 0
        assert gibberish(m, tied, GibberishPolicy(3, p_next=1.0))[0][-1] == 1
        space = enumerate_branch_space(m, tied, 1, m.d)
        assert [space.find(tied + (s,)).depth_down for s in range(m.d)] == list(range(m.d))


@pytest.mark.parametrize("name", ["trained", "overflow", "synth"])
def test_gibberish_always_taking_rank_1_is_a_loop_of_next_ranked(cases, name):
    m, words = cases[name]
    with np.errstate(all="ignore"):
        for p in _prefixes(words[:10]):
            w = p
            for _ in range(12):
                w += (next_ranked(m, w, 1),)
            assert gibberish(m, p, GibberishPolicy(len(w), p_next=1.0, seed=3))[0] == w


def _reference_greedy(m, prefix, steps, penalties):
    """The full-sort rule: the first sound of the stable order whose word is
    not excluded."""
    w = tuple(prefix)
    for _ in range(steps):
        order = ranked_next_sounds(m, w, base=0.0)[1]
        w += (next(s for s in order if w + (s,) not in penalties),)
    return w


@pytest.mark.parametrize("name", ["trained", "untrained", "overflow", "synth"])
def test_greedy_with_its_first_choice_excluded_at_every_step(cases, name):
    m, words = cases[name]
    with np.errstate(all="ignore"):
        for p in _prefixes(words[:10]):
            penalties, w = set(), p
            for step in range(10):
                order = ranked_next_sounds(m, w, base=0.0)[1]
                # Exclude the first choice, and every third step the second too.
                skip = 2 if step % 3 == 0 else 1
                penalties.update(w + (s,) for s in order[:skip])
                w += (order[skip],)
            got = grow_greedy(m, p, 10, frozenset(penalties))
            assert got == _reference_greedy(m, p, 10, penalties) == w
            assert got != grow_greedy(m, p, 10)


@pytest.mark.parametrize("name", ["trained", "synth"])
def test_each_scored_step_counts_d_evaluations(cases, name):
    m, words = cases[name]
    word = max(words, key=len)
    for p in (word[:0], word[:2]):
        reset_eval_count()
        grow_greedy(m, p, 9)
        assert eval_count() == 9 * m.d
        reset_eval_count()
        grown, _ = gibberish(m, p, GibberishPolicy(len(p) + 9, p_next=0.5, seed=5))
        assert len(grown) == len(p) + 9 and eval_count() == 9 * m.d
        reset_eval_count()
        node = enumerate_branch_space(m, p, len(word), 10 * len(word)).find(word)
        assert node is not None and eval_count() == (len(word) - len(p)) * m.d


def test_a_single_range_sum_is_a_writable_copy_and_no_range_is_zeros(latin, latin_model):
    m = InteractionModel(latin.alphabet, 1, latin_model.g0, latin_model.g[:1])
    for back, rows in (((3,), ()), ((np.array([3, 5]),), (2,))):
        cross = _cross_energies(m, back, rows)
        assert cross.flags.writeable and not np.shares_memory(cross, m._terms)
        assert np.array_equal(cross, m._terms[0, back[0]])
    assert np.array_equal(_cross_energies(m, (), (2,)), np.zeros((2, m.d)))


@pytest.mark.parametrize(
    "call",
    [
        lambda m: word_energy(m, (0, -1)),
        lambda m: ranked_next_sounds(m, (18,), base=0.0),
        lambda m: ranked_next_sounds(m, (0, -1)),
        lambda m: next_sound_energies(m, (18,), base=0.0),
        lambda m: next_sound_energies(m, (-1, 2)),
        lambda m: next_sound_distribution(m, (18,)),
        lambda m: energy_profile(m, (0, 1, 18)),
        lambda m: segment(m, (0, -1), 1.0),
        lambda m: next_ranked(m, (18,), 0),
        lambda m: segment(m, (99,), 0.0),
        lambda m: segment(m, (-1,), 0.0),
        lambda m: predict_completions(m, (99,), load_embedded("latin")),
        lambda m: predict_completions(m, (-1,), load_embedded("latin")),
    ],
    ids=[
        "word_energy", "ranked_base", "ranked", "energies_base", "energies",
        "distribution", "profile", "segment", "next_ranked",
        "segment_one_high", "segment_one_negative", "predict_high", "predict_negative",
    ],
)
def test_primitives_reject_an_out_of_range_symbol_index(latin_model, call):
    assert latin_model.d == 18
    with pytest.raises(ValueError, match="symbol index .* out of range"):
        call(latin_model)


def test_valid_calls_keep_the_written_out_bits(latin, latin_model):
    m = latin_model
    terms = (m.g0 - m.g).tolist()

    def energy(w):
        total = 0.0
        for x in range(len(w)):
            for r in range(1, m.r_max + 1):
                if x + r < len(w):
                    total += terms[r - 1][w[x]][w[x + r]]
        return total

    def cross(p):
        out = np.zeros(m.d)
        for r in range(1, min(m.r_max, len(p)) + 1):
            out += m.g0 - m.g[r - 1][p[-r]]
        return out

    def profile(w):
        gaps = [0.0] * max(0, len(w) - 1)
        for x in range(len(w)):
            for r in range(1, m.r_max + 1):
                if x + r < len(w):
                    for k in range(x, x + r):
                        gaps[k] += terms[r - 1][w[x]][w[x + r]]
        return gaps

    for w in latin.words:
        assert _hex([word_energy(m, w)]) == _hex([energy(w)])
        assert _hex(energy_profile(m, w)) == _hex(profile(w))
        for k in range(len(w)):
            p = w[:k]
            expected = energy(p) + cross(p)
            assert _hex(next_sound_energies(m, p)) == _hex(expected)
            energies, order = ranked_next_sounds(m, p)
            assert _hex(energies) == _hex(expected)
            assert order == np.argsort(cross(p), kind="stable").tolist()
