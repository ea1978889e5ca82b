"""A per-character corpus is parsed as one array of code points. Checked
here against a reference built in the test (the first-appearance inventory,
then `tokenize` of each normalized token); the general path (a digraph
table or a combining mark) keeps its own symbols and spellings; and the
surface words a corpus keeps are never shared with a caller."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from phonomem import Alphabet, Corpus, parse_corpus, tokenize, train
from phonomem.alphabet import normalize, surface_digest

# ASCII, Latin-1, the synthetic corpora's U+0100-U+0177, CJK and the astral
# plane (mathematical Fraktur, U+1D51E 𝔞 among them): no whitespace and no
# combining mark in any of them.
RANGES = [(0x21, 0x7E), (0xA1, 0xFF), (0x100, 0x177), (0x4E00, 0x4E7F), (0x1D504, 0x1D537)]
CHARS = st.one_of(
    *(st.characters(min_codepoint=lo, max_codepoint=hi) for lo, hi in RANGES)
).filter(lambda c: c not in ",#")
WORD_LINES = st.tuples(
    st.lists(st.text(CHARS, min_size=1, max_size=8), max_size=6),
    st.sampled_from([" ", ",", ", ", "\t", " ,, "]),
).map(lambda t: t[1].join(t[0]))
COMMENTS = st.text(CHARS | st.sampled_from(" ,#"), max_size=12).map(lambda t: " #" + t)
LINES = st.lists(st.one_of(WORD_LINES, COMMENTS), max_size=12)


def reference(lines):
    """(alphabet, words) from the inventory of `dict.fromkeys` and
    `tokenize` of each normalized token, or None for no token."""
    tokens = [
        normalize(t)
        for line in lines
        if not line.lstrip().startswith("#")
        for t in line.replace(",", " ").split()
    ]
    if not tokens:
        return None, tokens
    alphabet = Alphabet(tuple(dict.fromkeys("".join(tokens))))
    return (alphabet, tuple(tokenize(t, alphabet) for t in tokens)), tokens


def respelled(corpus):
    return ["".join(corpus.alphabet.symbols[i] for i in w) for w in corpus.words]


def assert_matches_reference(lines):
    want, tokens = reference(lines)
    corpus = parse_corpus(lines)
    assert corpus.alphabet == want[0]
    assert corpus.words == want[1]
    assert corpus.surface_words() == respelled(corpus) == tokens
    assert corpus.sha256() == surface_digest(tokens)


@settings(max_examples=200, deadline=None)
@given(LINES.filter(lambda lines: reference(lines)[0] is not None))
def test_array_parse_matches_reference(lines):
    assert_matches_reference(lines)


@pytest.mark.parametrize("d", [300, 65_537], ids=["16-bit", "32-bit"])
def test_alphabets_past_one_byte_of_index(d):
    # CJK ideographs (U+20000 up astral) and Hangul syllables, all
    # unchanged by NFC, shuffled so that first appearance and code point
    # order differ; three per word, each at least once.
    codes = [*range(0x4E00, 0xA000), *range(0xAC00, 0xD7A4), *range(0x20000, 0x2A6E0)]
    chars = list(map(chr, codes))
    random.Random(d).shuffle(chars)
    chars = chars[:d]
    stream = chars + random.Random(-d).choices(chars, k=d)
    words = ["".join(stream[i : i + 3]) for i in range(0, len(stream), 3)]
    lines = [" ".join(words[i : i + 10]) for i in range(0, len(words), 10)]
    assert_matches_reference(lines)
    assert parse_corpus(lines).alphabet.d == d


@pytest.mark.parametrize(
    "lines, table, symbols, words, surface",
    [
        # The README's digraph example: `tsh` is spelled as its symbol `ch`.
        (["tsha ch"], {"tsh": "ch"}, ("ch", "a", "c", "h"), ((0, 1), (0,)), ["cha", "ch"]),
        # q + U+0304 has no precomposed form, so it stays one two-code-point symbol.
        (["q̄a aq̄, b"], None, ("q̄", "a", "b"), ((0, 1), (1, 0), (2,)),
         ["q̄a", "aq̄", "b"]),
    ],
    ids=["digraph", "combining-mark"],
)
def test_general_path_keeps_its_symbols_and_spellings(lines, table, symbols, words, surface):
    corpus = parse_corpus(lines, digraph_table=table)
    assert corpus.alphabet.symbols == symbols
    assert corpus.words == words
    assert corpus.surface_words() == respelled(corpus) == surface
    assert corpus.sha256() == surface_digest(surface)


def _parsed():
    return parse_corpus(["servus, salve", "ave"])


def _built():
    parsed = _parsed()
    return Corpus(parsed.alphabet, parsed.words)


@pytest.mark.parametrize("make", [_parsed, _built], ids=["parsed", "built"])
def test_surface_words_are_a_fresh_list(make):
    corpus = make()
    digest = corpus.sha256()
    words = corpus.surface_words()
    words[0] = "x"
    words.append("y")
    assert corpus.surface_words() == ["servus", "salve", "ave"]
    assert corpus.surface_words() is not corpus.surface_words()
    assert corpus.sha256() == digest
    assert list(train(corpus).meta["corpus"]["words"]) == ["servus", "salve", "ave"]


def test_replaced_words_are_spelled_anew():
    corpus = _parsed()
    corpus.surface_words()
    other = dataclasses.replace(corpus, words=[corpus.words[2], corpus.words[0]])
    assert other.surface_words() == ["ave", "servus"]
    assert other.sha256() == surface_digest(["ave", "servus"])
    assert train(other).meta["corpus"]["words"] == ("ave", "servus")


def test_cached_and_uncached_corpora_compare_and_hash_equal():
    parsed, built = _parsed(), _built()
    assert parsed == built and hash(parsed) == hash(built)
    built.surface_words()
    assert parsed == built and hash(parsed) == hash(built)
    assert {parsed: 1}[built] == 1
