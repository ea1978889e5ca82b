import dataclasses
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
from phonomem.storage import _model_text


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


@pytest.mark.parametrize("word", [(2**70, 0), (np.int64(-1),), (np.uint64(3),)])
def test_corpus_refuses_out_of_range_indices(word):
    with pytest.raises(CorpusError, match="out-of-range"):
        Corpus(Alphabet(("a", "b", "c")), [(0, 1), word])


@pytest.mark.parametrize(
    "words",
    [[(1.5, 0)], [(1.0, 0)], [("1", 0)], [(1, 0), (1.0, 0)], [(np.float64(2.0),)], [(None,)]],
    ids=["1.5", "1.0", "str", "1-then-1.0", "numpy-float", "None"],
)
def test_corpus_refuses_non_integer_indices(words):
    # 1.0 equals 1 and hashes like it, so a set of the indices alone would
    # keep whichever came first.
    with pytest.raises(CorpusError, match="non-integer"):
        Corpus(Alphabet(("a", "b", "c")), words)


def test_corpus_takes_bools_and_numpy_integers():
    words = [(True, np.int64(2), np.uint8(0)), (False, np.int32(1)), (2, 2)]
    corpus = Corpus(Alphabet(("a", "b", "c")), words)
    assert corpus.surface_words() == ["bca", "ab", "cc"]
    plain = Corpus(corpus.alphabet, [(1, 2, 0), (0, 1), (2, 2)])
    for r_max in (1, 2, 3):
        np.testing.assert_array_equal(
            count_pairs(corpus, r_max).counts, reference_counts(plain, r_max)
        )
    assert _model_text(train(corpus)) == _model_text(train(plain))


def test_replaced_words_count_anew():
    corpus = parse_corpus(["servus salve", "ave vale"])
    count_pairs(corpus, 3)
    other = dataclasses.replace(corpus, words=[corpus.words[2], corpus.words[0]])
    for r_max in range(1, 8):
        np.testing.assert_array_equal(
            count_pairs(other, r_max).counts, reference_counts(other, r_max)
        )
    # The same word list under a smaller alphabet is range-checked anew.
    with pytest.raises(CorpusError, match="out-of-range"):
        dataclasses.replace(corpus, alphabet=Alphabet(corpus.alphabet.symbols[:3]))


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


def _lines_over(d: int):
    """Lines of words over d one-character symbols, U+0100 up, each symbol
    used at least once, so the parse's alphabet has exactly d symbols."""
    symbol = st.integers(0, d - 1).map(lambda i: chr(0x100 + i))
    words = st.lists(st.text(symbol, min_size=1, max_size=9), max_size=30)
    every = st.permutations([chr(0x100 + i) for i in range(d)])
    return st.tuples(every, words).map(
        lambda t: ["".join(t[0][i : i + 7]) for i in range(0, d, 7)] + [" ".join(t[1])]
    )


# d on both sides of 256: the parse's stream is uint8 up to 256 symbols,
# uint16 from 257 on; at 256 count_pairs widens it to pad with index 256.
@settings(max_examples=40, deadline=None)
@given(lines=st.sampled_from([1, 2, 18, 255, 256, 257, 300]).flatmap(_lines_over))
def test_parsed_and_built_corpora_train_alike(lines):
    parsed = parse_corpus(lines)
    built = Corpus(parsed.alphabet, tuple(parsed.words))
    assert "_stream" in vars(parsed.words) and "_stream" not in vars(built.words)
    for r_max in range(1, 13):
        np.testing.assert_array_equal(
            count_pairs(parsed, r_max).counts, count_pairs(built, r_max).counts
        )
    assert _model_text(train(parsed)) == _model_text(train(built))


@pytest.mark.parametrize("d", [255, 256])
def test_parsed_words_count_alike_under_a_wider_alphabet(d):
    # The parse's uint8 stream cannot hold 256, the padding index of a
    # 256-symbol or larger alphabet.
    parsed = parse_corpus(
        ["".join(chr(0x100 + i) for i in range(d)), chr(0x100 + d - 1) + chr(0x100)]
    )
    assert parsed.words._stream.dtype == np.uint8
    wider = Corpus(Alphabet(parsed.alphabet.symbols + ("x", "y")), parsed.words)
    assert wider.words is parsed.words
    for r_max in (1, 2, 5):
        np.testing.assert_array_equal(
            count_pairs(wider, r_max).counts, reference_counts(wider, r_max)
        )
