"""The per-character parse and tokenize paths against the `_split`-only
splitter they stand in for: equal alphabets, equal words, and the same
unknown-symbol errors."""

import importlib.util
import random
import sys
import unicodedata
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from phonomem import Alphabet, Corpus, CorpusError, UnknownSymbolError, build_inventory, parse_corpus, tokenize
from phonomem.alphabet import _split, _split_tokens, normalize


def ref_build_inventory(lines, digraph_table=None):
    digraphs = dict(digraph_table or {})
    lengths = sorted({len(k) for k in digraphs}, reverse=True)
    seen = {}
    for line in lines:
        for token in _split_tokens(line):
            for _, symbol in _split(normalize(token), digraphs, lengths):
                seen.setdefault(symbol)
    if not seen:
        raise CorpusError("empty corpus")
    return Alphabet(tuple(seen), tuple(digraphs.items()))


def ref_tokenize(text, alphabet):
    s = normalize(text)
    out = []
    for offset, symbol in _split(s, alphabet._spellings, alphabet._lengths):
        idx = alphabet._index.get(symbol)
        if idx is None:
            raise UnknownSymbolError(symbol, len(s[:offset].encode("utf-8")))
        out.append(idx)
    return tuple(out)


def outcome(fn, *args):
    """The result, or the error: an unknown symbol with its byte offset, or
    the error type with its message."""
    try:
        return fn(*args)
    except UnknownSymbolError as exc:
        return ("unknown", exc.symbol, exc.byte_offset)
    except (CorpusError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def assert_paths_agree(lines, digraph_table=None, probes=()):
    want = outcome(ref_build_inventory, lines, digraph_table)
    got = outcome(build_inventory, lines, digraph_table)
    assert got == want
    if not isinstance(got, Alphabet):
        return None
    corpus = parse_corpus(lines, digraph_table=digraph_table)
    assert corpus.alphabet == got
    tokens = [t for line in lines for t in _split_tokens(line)]
    assert corpus.words == tuple(ref_tokenize(t, got) for t in tokens)
    for probe in probes:
        assert outcome(tokenize, probe, got) == outcome(ref_tokenize, probe, got)
    return got


def _synth_words():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.corpus_lines(inputs.synth_words(1, 3000))


@pytest.mark.parametrize("name", ["latin", "turkish"])
def test_embedded_corpora_match_split_reference(name):
    text = resources.files("phonomem").joinpath(f"data/{name}.txt").read_text("utf-8")
    probes = ["servus", "x", "se\u0301rvus", "\u0301a", "kız", "ağaçlar"]
    alphabet = assert_paths_agree(text.split("\n"), probes=probes)
    assert alphabet._per_char


def test_synthetic_corpus_matches_split_reference():
    lines = _synth_words()
    alphabet = assert_paths_agree(lines, probes=[lines[0].split()[0] + "z", "A\u0304\u0301"])
    assert alphabet.d == 120 and alphabet._per_char


BASES = ["a", "e", "s", "h", "c", "t", "ı", "ş", "q", "."]
MARKS = ["\u0301", "\u0308", "\u0323", "\u0327"]
TABLES = [{"sh": "ʃ"}, {"ch": "ch", "tsh": "ch"}, {"q\u0301": "q"}]


def _fuzz_token(rng):
    pieces = []
    if rng.random() < 0.15:
        pieces.append(rng.choice(MARKS))  # token-initial combining mark
    for _ in range(rng.randint(1, 6)):
        pieces.append(rng.choice(BASES))
        while rng.random() < 0.1:
            pieces.append(rng.choice(MARKS))  # trailing mark(s)
    return "".join(pieces)


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_matches_split_reference(seed):
    rng = random.Random(seed)
    lines = [
        " ".join(_fuzz_token(rng) for _ in range(rng.randint(0, 8)))
        for _ in range(rng.randint(1, 8))
    ]
    if rng.random() < 0.5:  # no combining mark anywhere: the per-character path
        lines = ["".join(c for c in line if c not in MARKS) for line in lines]
    table = None if rng.random() < 0.5 else rng.choice(TABLES)
    if table and rng.random() < 0.8:  # usually spell the digraph targets too
        lines.append(" ".join(table.values()))
    # Probes: corpus tokens and fresh ones, each maybe followed by a mark or
    # by one of the unknown symbols 'z' and 'ß'.
    tokens = [t for line in lines for t in line.split()] or ["a"]
    probes = [
        rng.choice([rng.choice(tokens), _fuzz_token(rng)]) + rng.choice(["", "", "z", "ß"] + MARKS)
        for _ in range(12)
    ]
    assert_paths_agree(lines, table, probes)


# Every separator of str.split on this interpreter (its Unicode version).
SEPARATORS = [c for c in map(chr, range(sys.maxunicode + 1)) if len(f"a{c}b".split()) == 2]
JAMO = ["ᄀ", "ᄂ", "ᅡ", "ᅥ", "ᆨ", "ᆫ", "가"]  # L, V, T, LV


def test_one_nfc_over_the_text_is_each_tokens_nfc():
    # The premise of the parse's single NFC: no separator reorders, and no
    # canonical decomposition touches one but U+2000 -> U+2002 and U+2001
    # -> U+2003, both separators, so no composition crosses a separator.
    separators = set(SEPARATORS)
    assert set("\t\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u3000") <= separators
    assert not any(map(unicodedata.combining, separators))
    touching = {}
    for c in map(chr, range(sys.maxunicode + 1)):
        fields = unicodedata.decomposition(c).split()
        if fields and not fields[0].startswith("<"):
            parts = "".join(chr(int(h, 16)) for h in fields)
            if c in separators or separators.intersection(parts):
                touching[c] = parts
    assert touching == {"\u2000": "\u2002", "\u2001": "\u2003"}
    assert set(touching.values()) <= separators


def _whole_text_token(rng, pieces, marks):
    token = "".join(rng.choice(pieces + marks) for _ in range(rng.randint(1, 5)))
    if marks and rng.random() < 0.2:
        token = rng.choice(marks) + token  # token-initial combining mark
    return token


@pytest.mark.parametrize("seed", range(60))
def test_whole_text_fuzz_matches_split_reference(seed):
    rng = random.Random(f"whole-text:{seed}")
    # Odd seeds leave out combining marks, so the per-character path runs
    # (Hangul jamo are not combining marks, and NFC composes them).
    pieces = ["a", "e", "ş", "ā"] + JAMO
    marks = MARKS if seed % 2 == 0 else []
    lines = []
    for _ in range(rng.randint(1, 8)):
        parts = []
        for _ in range(rng.randint(0, 8)):
            parts += [_whole_text_token(rng, pieces, marks), rng.choice(SEPARATORS + [",", ", ", ",,"])]
        line = "".join(parts)
        if rng.random() < 0.2:
            line = rng.choice(["#", " #", "\t#", "\u3000#"]) + line
        if rng.random() < 0.15:  # an embedded newline, maybe before a '#'
            line += "\n" + rng.choice(["#", ""]) + _whole_text_token(rng, pieces, marks)
        lines.append(line)
    probes = [_whole_text_token(rng, pieces, marks) for _ in range(4)]
    alphabet = assert_paths_agree(lines, probes=probes)
    if alphabet is not None and not marks:
        assert alphabet._per_char


@pytest.mark.parametrize(
    "lines, lineno",
    [
        (["servus", "# a \udc80 comment", "via \ud800"], 2),  # in a comment line
        (["# one", "  # two", "bad \ud800 word", "via"], 3),  # after comment lines
        (["servus", "via, domina", "last \udfff"], 3),  # in the last line
    ],
    ids=["in-comment", "after-comments", "last-line"],
)
def test_surrogate_names_its_line(lines, lineno):
    for parse in (build_inventory, parse_corpus):
        for given in (lines, iter(lines)):
            with pytest.raises(CorpusError, match=f"^line {lineno}: malformed byte sequence$"):
                parse(given)


@pytest.mark.parametrize("d", [254, 255, 256])
def test_word_cut_at_the_one_byte_edge(d):
    # Up to d = 255, index d ends each parsed word in one byte; at 256 the
    # parse slices its stream by word lengths instead. Words holding index
    # d - 1 or the bytes of a space and a newline sit beside one-sound words.
    rng = random.Random(d)
    symbols = tuple(chr(0x100 + i) for i in range(d))
    words = [tuple(range(d)), (d - 1,), (d - 1, d - 1), (0,), (10, 32, 10)]
    words += [tuple(rng.randrange(d) for _ in range(rng.randint(1, 9))) for _ in range(300)]
    spelled = ["".join(symbols[i] for i in w) for w in words]
    lines = [" ".join(spelled[k : k + 7]) for k in range(0, len(spelled), 7)]
    parsed = parse_corpus(lines)
    built = Corpus(Alphabet(symbols), tuple(words))
    assert parsed.alphabet == built.alphabet
    assert parsed.words == built.words
    assert {type(i) for w in parsed.words for i in w} == {int}
    assert parsed.words._stream.dtype == np.uint8
    np.testing.assert_array_equal(parsed.words._stream, built.words._stream)
    assert parsed.surface_words() == built.surface_words() == spelled
