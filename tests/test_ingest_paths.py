"""The per-character parse and tokenize paths against the `_split`-only
splitter they stand in for: equal alphabets, equal words, and the same
unknown-symbol errors."""

import importlib.util
import random
from importlib import resources
from pathlib import Path

import pytest

from phonomem import Alphabet, CorpusError, UnknownSymbolError, build_inventory, parse_corpus, tokenize
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

