"""The prefix index of a word list (`Words`) and the callers that read it:
every lookup equals a scan of the whole list, in list order, duplicates
included, and predict_completions is unchanged bit for bit."""

import dataclasses
import math
import sys
import threading
from itertools import product
from pathlib import Path

import pytest

from phonomem import parse_corpus, predict_completions, train
from phonomem.alphabet import Alphabet, Corpus, Words
from phonomem.model import _log_chain_probabilities

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from inputs import synth_words  # noqa: E402


@pytest.fixture(scope="module")
def synth():
    corpus = parse_corpus(synth_words(1, 2000))
    assert corpus.alphabet.d == 120
    return corpus, train(corpus)


@pytest.fixture(scope="module")
def ch():
    return parse_corpus(["ch cha hac ach"], digraph_table={"ch": "ch"})


def _scan(words, p):
    return [w for w in words if w[: len(p)] == p]


def _absent(words, d):
    """The first one- or two-sound prefix that starts no word."""
    starts = {w[:k] for w in words for k in (1, 2)}
    return next(p for n in (1, 2) for p in product(range(d), repeat=n) if p not in starts)


def _prefixes(words, d, lengths):
    """Every prefix of the given lengths of every word, once each, plus an
    absent prefix and one longer than every word."""
    found = {w[:k]: None for w in words for k in lengths if k <= len(w)}
    return [*found, _absent(words, d), max(words, key=len) + (0,)]


@pytest.mark.parametrize("name", ["latin", "turkish", "ch", "synth"])
def test_starting_with_equals_a_scan_of_the_list(request, name):
    corpus = request.getfixturevalue(name)
    if name == "synth":
        corpus = corpus[0]
    words = corpus.words
    for p in _prefixes(words, corpus.alphabet.d, range(4)):
        want = _scan(words, p)
        assert words.starting_with(p) == want and words.starting_with(list(p)) == want
    assert words.starting_with(()) == list(words)


def test_starting_with_keeps_duplicates_in_list_order():
    words = Words([(0, 1), (1,), (0, 2), (0, 1), (0,)])
    assert words.starting_with((0,)) == [(0, 1), (0, 2), (0, 1), (0,)]
    assert words.starting_with((0, 1)) == [(0, 1), (0, 1)]
    assert words.starting_with((0, 1, 0)) == []
    assert words.starting_with((2,)) == []


def test_corpus_words_are_a_words_equal_to_the_plain_tuple(latin):
    plain = tuple(latin.words)
    assert type(latin.words) is Words and type(plain) is tuple
    assert latin.words == plain and hash(latin.words) == hash(plain)
    assert repr(latin.words) == repr(plain)
    replaced = dataclasses.replace(latin, source="x")
    assert isinstance(replaced.words, Words) and replaced.words == plain


def test_index_is_built_on_first_lookup_only():
    corpus = parse_corpus(["ata tad da"])
    assert "_by_head" not in vars(corpus.words)
    assert corpus.words.starting_with((0,)) == [(0, 1, 0)]
    assert "_by_head" in vars(corpus.words)


def test_corpus_from_a_list_is_immutable_and_hashable():
    words = [(0, 1), [1, 0]]
    corpus = Corpus(Alphabet(("a", "b")), words)
    assert isinstance(corpus.words, tuple)
    assert all(type(w) is tuple for w in corpus.words)
    assert hash(corpus) == hash(Corpus(Alphabet(("a", "b")), ((0, 1), (1, 0))))
    words.append((5,))
    words[0] = (1,)
    assert corpus.words == ((0, 1), (1, 0))


def test_two_threads_on_one_fresh_words_get_equal_results(synth):
    corpus = synth[0]
    prefixes = _prefixes(corpus.words, corpus.alphabet.d, (1, 2))
    want = [_scan(corpus.words, p) for p in prefixes]
    for _ in range(5):
        words = Words(corpus.words)
        barrier = threading.Barrier(2, timeout=10)
        results = [None, None]

        def query(k, words=words, barrier=barrier, results=results):
            barrier.wait()
            results[k] = [words.starting_with(p) for p in prefixes]

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
        assert results[0] == results[1] == want


def _reference_predict(m, prefix, lexicon, beta=1.0):
    """predict_completions with its matches found by scanning the list."""
    p = tuple(prefix)
    matches = _scan(lexicon.words, p)
    logps = _log_chain_probabilities(m, matches, len(p), beta).tolist()
    scored = sorted(zip(matches, logps), key=lambda item: (-item[1], item[0]))
    return [(w, math.exp(logp).hex()) for w, logp in scored]


def _bits(ranked):
    return [(w, prob.hex()) for w, prob in ranked]


@pytest.mark.parametrize("name", ["latin", "turkish", "synth"])
def test_predict_equals_the_scanning_reference(request, name):
    if name == "synth":
        lexicon, model = request.getfixturevalue("synth")
    else:
        lexicon = request.getfixturevalue(name)
        model = request.getfixturevalue(f"{name}_model")
    for p in [(), *_prefixes(lexicon.words, lexicon.alphabet.d, (1, 2))]:
        got = _bits(predict_completions(model, p, lexicon))
        assert got == _reference_predict(model, p, lexicon)


def test_predict_lists_a_repeated_word_twice(latin, latin_model):
    word = latin.words[0]
    lexicon = Corpus(latin.alphabet, latin.words + (word,))
    for p in (word[:1], word[:2], ()):
        got = _bits(predict_completions(latin_model, p, lexicon))
        assert got == _reference_predict(latin_model, p, lexicon)
        assert [w for w, _ in got].count(word) == latin.words.count(word) + 1
