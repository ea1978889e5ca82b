"""The scored rows a word list keeps for predict_completions and the chain
scorer (`Words._rows`): every result equals the per-word
log_chain_probability bit for bit, counts d per scored step cold or warm,
and the rows stay out of the list's value."""

import json
import math
import sys
import threading
from pathlib import Path

import pytest

from phonomem import TrainConfig, parse_corpus, predict_completions, train
from phonomem import model as model_module
from phonomem.alphabet import Alphabet, Corpus, Words
from phonomem.model import (
    _blocks,
    _log_chain_probabilities,
    eval_count,
    log_chain_probability,
    reset_eval_count,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


def _hex(ranked):
    return [(w, p.hex()) for w, p in ranked]


def _expected(m, prefix, words, beta=1.0):
    """predict_completions by its definition: each matching word's own
    log_chain_probability, sorted by it descending, then by word."""
    p = tuple(prefix)
    scored = [(w, log_chain_probability(m, p, w[len(p):], beta))
              for w in words if w[: len(p)] == p]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [(w, math.exp(logp)) for w, logp in scored]


def _short_prefixes(words):
    """Every 1-3-sound prefix of the list's words, once each, in first
    appearance order."""
    return list({w[:k]: None for w in words for k in (1, 2, 3) if k <= len(w)})


@pytest.mark.parametrize("name", ["latin", "turkish"])
@pytest.mark.parametrize("normalize", ["none", "per-range-sum"])
@pytest.mark.parametrize("r_max", [1, 3, 5])
def test_every_short_prefix_equals_the_per_word_chain(request, name, normalize, r_max):
    corpus = request.getfixturevalue(name)
    m = train(corpus, TrainConfig(normalize=normalize), r_max=r_max)
    for beta in (0.5, 1.0, 7.0):
        lexicon = Corpus(corpus.alphabet, tuple(corpus.words))  # rows built by this loop
        for p in [(), *_short_prefixes(corpus.words)]:
            got = predict_completions(m, p, lexicon, beta)
            assert got, p
            assert _hex(got) == _hex(_expected(m, p, corpus.words, beta)), (p, beta)


def test_cold_and_warm_calls_count_d_per_scored_step(latin, latin_model):
    m = latin_model
    for p in [(), *_short_prefixes(latin.words)]:
        want = m.d * sum(len(w) - len(p) for w in latin.words if w[: len(p)] == p)
        counts = []
        for lexicon in (Corpus(latin.alphabet, tuple(latin.words)),) * 2:  # cold, then warm
            reset_eval_count()
            predict_completions(m, p, lexicon)
            counts.append(eval_count())
        assert counts == [want, want], p


def test_two_threads_racing_the_first_build_get_equal_results(turkish, turkish_model):
    prefixes = [(), *_short_prefixes(turkish.words)]
    want = [_expected(turkish_model, p, turkish.words) for p in prefixes]
    for _ in range(5):
        lexicon = Corpus(turkish.alphabet, tuple(turkish.words))
        barrier = threading.Barrier(2, timeout=10)
        results = [None, None]

        def query(k, lexicon=lexicon, barrier=barrier, results=results):
            barrier.wait()
            results[k] = [_hex(predict_completions(turkish_model, p, lexicon)) for p in prefixes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=query, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results[0] == results[1] == [_hex(r) for r in want]


@pytest.fixture(scope="module")
def small():
    """Duplicates, one-sound words and a word that is another's prefix."""
    alphabet = Alphabet(("a", "b", "c", "d"))
    words = [(0, 1), (1,), (0, 2, 1), (0, 1), (0,), (1,), (2, 0, 1, 2, 0), (0, 1, 2)]
    m = train(Corpus(alphabet, words))
    return Corpus(alphabet, words), m


def test_duplicates_and_one_sound_words(small):
    lexicon, m = small
    for p in [(), (0,), (1,), (0, 1), (0, 2), (2, 0, 1), (0, 1, 2)]:
        assert _hex(predict_completions(m, p, lexicon)) == _hex(_expected(m, p, lexicon.words))
    # Each copy of a duplicate is its own completion; a word under its own
    # prefix has nothing left to say.
    assert predict_completions(m, (1,), lexicon) == [((1,), 1.0), ((1,), 1.0)]
    ranked = predict_completions(m, (0, 1), lexicon)
    assert ranked[:2] == [((0, 1), 1.0), ((0, 1), 1.0)] and len(ranked) == 3
    assert predict_completions(m, (0,), lexicon)[0] == ((0,), 1.0)


def test_a_prefix_matching_nothing_is_empty(small):
    lexicon, m = small
    # No word starts with d; none continues (2, 1) or (0, 3); none is longer
    # than 255 sounds (the position column's type is one byte wide).
    for p in [(3,), (2, 1), (0, 3), (0, 1, 2, 0), (0,) * 300]:
        reset_eval_count()
        assert predict_completions(m, p, lexicon) == []
        assert eval_count() == 0


def test_a_word_whose_rows_straddle_a_block_edge():
    corpus = parse_corpus(synth_words(3, 2000))
    m = train(corpus)
    assert m.d == 120
    # Every word under one first sound: that bucket alone holds far more
    # rows than one block, and each word's rows lie one position apart.
    words = [(0,) + w for w in corpus.words]
    lexicon = Corpus(corpus.alphabet, words)
    stream, reach, at, word, pos, bounds = lexicon.words._rows(m.d, m.r_max)
    step = model_module._BLOCK // m.d
    assert bounds[1] - bounds[0] == len(word) > 2 * step
    edge = _blocks(len(word), m.d)[1].start
    straddling = sorted(set(word[:edge].tolist()) & set(word[edge:].tolist()))
    assert straddling
    probes = {words[i][:k] for i in straddling[:5] for k in (1, 2, 3)}
    for p in [(), *sorted(probes)]:
        reset_eval_count()
        got = predict_completions(m, p, lexicon)
        matches = [w for w in words if w[: len(p)] == p]
        assert eval_count() == m.d * sum(len(w) - len(p) for w in matches)
        assert _hex(got) == _hex(_expected(m, p, words)), p


def test_rows_stay_out_of_the_lists_value(latin, latin_model):
    words = Words(latin.words)
    before = (words == latin.words, hash(words), json.dumps(words), repr(words))
    words._rows(latin_model.d, latin_model.r_max)
    words._rows(latin_model.d, 1)
    assert (words == latin.words, hash(words), json.dumps(words), repr(words)) == before
    assert len(vars(words)["_rows_by_shape"]) == 2
    assert not any("rows" in k for k in vars(latin_model))


def test_a_parsed_lexicon_reuses_its_stream(latin, latin_model):
    lexicon = parse_corpus(latin.surface_words())
    stream = lexicon.words._stream
    padded = lexicon.words._rows(latin_model.d, latin_model.r_max)[0]
    assert padded.dtype == stream.dtype and len(padded) > len(stream)
    assert padded[padded != latin_model.d].tolist() == stream.tolist()


def test_the_chain_scorer_reads_the_kept_rows(latin, latin_model):
    m = latin_model
    lexicon = Corpus(latin.alphabet, tuple(latin.words))
    words = lexicon.words
    steps = m.d * sum(len(w) - 1 for w in words)
    reset_eval_count()
    first = _log_chain_probabilities(m, words, 1, 1.0)
    assert eval_count() == steps
    built = vars(words)["_rows_by_shape"]
    assert list(built) == [(m.d, m.r_max)]
    rows = built[m.d, m.r_max]
    # predict_completions and a second call at another beta build nothing new.
    predict_completions(m, (), lexicon)
    reset_eval_count()
    second = _log_chain_probabilities(m, words, 1, 7.0)
    assert eval_count() == steps
    assert list(built) == [(m.d, m.r_max)] and built[m.d, m.r_max] is rows
    assert [v.hex() for v in second.tolist()] != [v.hex() for v in first.tolist()]
    # A plain list lays its own rows out and totals the same bits.
    plain = _log_chain_probabilities(m, list(latin.words), 1, 1.0)
    assert [v.hex() for v in plain.tolist()] == [v.hex() for v in first.tolist()]


def test_a_start_past_the_position_type_scores_nothing(latin, latin_model):
    # Latin positions are uint8: a start of 300 lies past what they hold, and
    # the compare must still find no row at or past it.
    words = latin.words
    assert words._rows(latin_model.d, latin_model.r_max)[4].dtype == "uint8"
    reset_eval_count()
    got = _log_chain_probabilities(latin_model, words, 300, 1.0)
    assert eval_count() == 0
    assert [v.hex() for v in got.tolist()] == [(0.0).hex()] * len(words)
