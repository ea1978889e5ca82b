import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from phonomem import (
    Alphabet,
    Corpus,
    CorpusError,
    build_inventory,
    count_pairs,
    parse_corpus,
    train,
)


def reference_counts(corpus: Corpus, r_max: int) -> np.ndarray:
    """The per-word np.add.at loop that count_pairs replaced."""
    d = corpus.alphabet.d
    counts = np.zeros((r_max, d, d), dtype=np.int64)
    for w in corpus.words:
        arr = np.asarray(w, dtype=np.intp)
        for r in range(1, min(r_max, len(w) - 1) + 1):
            np.add.at(counts[r - 1], (arr[:-r], arr[r:]), 1)
    return counts


def random_corpus() -> Corpus:
    rng = random.Random(0)
    d = 120
    alphabet = Alphabet(tuple(chr(0x100 + i) for i in range(d)))
    words = tuple(
        tuple(rng.randrange(d) for _ in range(rng.randint(3, 14))) for _ in range(500)
    )
    return Corpus(alphabet, words)


@pytest.mark.parametrize(
    "make",
    [
        lambda request: request.getfixturevalue("latin"),
        lambda request: request.getfixturevalue("turkish"),
        lambda request: random_corpus(),
        lambda request: parse_corpus(["a b c a a b"]),
        lambda request: parse_corpus(["insula"]),
    ],
    ids=["latin", "turkish", "random", "one-sound", "single-word"],
)
def test_count_pairs_equals_add_at_loop(make, request):
    corpus = make(request)
    d = corpus.alphabet.d
    longest = max(map(len, corpus.words))
    for r_max in range(1, longest + 3):
        counts = count_pairs(corpus, r_max).counts
        assert counts.dtype == np.int64
        assert counts.shape == (r_max, d, d)
        np.testing.assert_array_equal(counts, reference_counts(corpus, r_max))


def test_train_meta_words_and_digest_from_surface_spellings():
    # "sh" is spelled "ʃ" in the alphabet, so surface words differ from input.
    corpus = parse_corpus(["shoe ash", "hose"], digraph_table={"sh": "ʃ"})
    surface = corpus.surface_words()
    assert surface == ["ʃoe", "aʃ", "hose"]
    meta = train(corpus).meta["corpus"]
    assert meta["words"] == tuple(surface)
    assert meta["sha256"] == corpus.sha256()


def test_lone_surrogate_names_its_line():
    with pytest.raises(CorpusError, match="^line 3: malformed byte sequence$"):
        build_inventory(["fine", "also fine", "bad \udc80 word"])


def test_corpus_index_bounds():
    al = build_inventory(["ata"])
    assert Corpus(al, ((0, 1), (1,))).surface_words() == ["at", "t"]
    for word in ((0, 2), (-1, 0)):
        with pytest.raises(CorpusError, match="out-of-range"):
            Corpus(al, (word,))


def _alphabet(d: int) -> Alphabet:
    return Alphabet(tuple(chr(0x100 + i) for i in range(d)))


# d on both sides of 256; words of one sound up to eight, so r_max up to 12
# runs past every word's length.
_WORD_LISTS = st.sampled_from([1, 2, 3, 18, 255, 256, 257, 300]).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(
            st.lists(st.integers(0, d - 1), min_size=1, max_size=8).map(tuple), max_size=25
        ),
    )
)


@settings(max_examples=150, deadline=None)
@given(case=_WORD_LISTS, r_max=st.integers(1, 12))
@example(case=(256, [(255,), (0,), (255,)]), r_max=3)  # one-sound words only
@example(case=(257, [(256, 0), (1,), (256, 256, 5)]), r_max=12)  # r_max past every word
@example(case=(255, [(254,) * 8, (0, 1)]), r_max=5)  # one word shorter than r_max
@example(case=(1, []), r_max=2)
def test_count_pairs_equals_reference_on_any_word_list(case, r_max):
    d, words = case
    corpus = Corpus(_alphabet(d), tuple(words))
    counts = count_pairs(corpus, r_max).counts
    assert counts.dtype == np.int64
    assert counts.shape == (r_max, d, d)
    np.testing.assert_array_equal(counts, reference_counts(corpus, r_max))
