import os
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import phonomem
from phonomem import (
    Alphabet,
    Corpus,
    CorpusError,
    UnknownSymbolError,
    build_inventory,
    detokenize,
    load_embedded,
    normalize,
    parse_corpus,
    tokenize,
)

LATIN_D = 18
TURKISH_D = 22


def test_build_inventory_first_appearance():
    al = build_inventory(["ata", "tad"])
    assert al.symbols == ("a", "t", "d")
    assert al.d == 3


def test_build_inventory_duplicates_collapse():
    al = build_inventory(["a", "a", "a"])
    assert al.symbols == ("a",)
    assert al.d == 1


def test_build_inventory_empty_corpus():
    with pytest.raises(CorpusError, match="empty corpus"):
        build_inventory([])
    with pytest.raises(CorpusError, match="empty corpus"):
        build_inventory(["", "   ", "# just a comment"])


def test_build_inventory_malformed_line_number():
    with pytest.raises(CorpusError, match="line 2"):
        build_inventory(["fine", "bad\ud800word"])


def test_inventory_deterministic():
    lines = ["insula servus", "verbum, pāstor"]
    assert build_inventory(lines).symbols == build_inventory(lines).symbols


def test_tokenize_basic():
    al = build_inventory(["ata", "tad"])
    assert tokenize("ata", al) == (0, 1, 0)
    assert tokenize("", al) == ()


def test_tokenize_unknown_symbol_names_cluster_and_offset():
    al = build_inventory(["ata"])
    with pytest.raises(UnknownSymbolError) as err:
        tokenize("atxa", al)
    assert err.value.symbol == "x"
    assert err.value.byte_offset == 2
    # byte offset counts UTF-8 bytes, not characters
    al2 = build_inventory(["āta"])
    with pytest.raises(UnknownSymbolError) as err:
        tokenize("āq", al2)
    assert err.value.symbol == "q"
    assert err.value.byte_offset == 2  # ā is two bytes


def test_tokenize_macron_vowels_single_clusters():
    latin = load_embedded("latin")
    w = tokenize("pāstōrēs", latin.alphabet)
    assert len(w) == 8


def test_tokenize_normalizes_combining_input():
    latin = load_embedded("latin")
    decomposed = unicodedata.normalize("NFD", "pāstōrēs")
    assert len(decomposed) == 11  # macrons split into combining marks
    assert tokenize(decomposed, latin.alphabet) == tokenize("pāstōrēs", latin.alphabet)


def test_detokenize_inverse_and_errors():
    al = build_inventory(["ata", "tad"])
    assert detokenize((0, 1, 0), al) == "ata"
    assert detokenize((), al) == ""
    with pytest.raises(ValueError, match="out of range"):
        detokenize((0, 5), al)
    with pytest.raises(ValueError, match="out of range"):
        detokenize((-1,), al)


def test_digraph_table():
    al = build_inventory(["chat", "tach"], digraph_table={"ch": "ch"})
    assert al.symbols == ("ch", "a", "t")
    assert tokenize("chat", al) == (0, 1, 2)
    assert detokenize(tokenize("tach", al), al) == "tach"


def test_digraph_remap_to_other_symbol():
    al = build_inventory(["shoe"], digraph_table={"sh": "ʃ"})
    assert al.symbols[0] == "ʃ"
    assert tokenize("shoe", al) == tokenize("ʃoe", al)


def test_spelled_out_digraph_target_takes_longest_match():
    table = {"tsh": "ch"}
    al = build_inventory(["tsha", "ch"], digraph_table=table)
    assert al.symbols == ("ch", "a", "c", "h")
    assert tokenize("ch", al) == (0,)
    assert tokenize("tsha", al) == (0, 1)
    assert parse_corpus(["tsha ch"], digraph_table=table).words == ((0, 1), (0,))


def test_tokenize_stray_combining_mark_after_known_base():
    al = build_inventory(["qa"])
    with pytest.raises(UnknownSymbolError) as err:
        tokenize("aq\u0307a", al)
    assert err.value.symbol == "\u0307"
    assert err.value.byte_offset == 2
    # a base without a precomposed form keeps its marks, known or not
    assert build_inventory(["q\u0307a"]).symbols == ("q\u0307", "a")
    with pytest.raises(UnknownSymbolError) as err:
        tokenize("aq\u0307a", build_inventory(["a"]))
    assert (err.value.symbol, err.value.byte_offset) == ("q\u0307", 1)


def test_corpus_round_trip_both_corpora():
    for name in ("latin", "turkish"):
        corpus = load_embedded(name)
        for w, surface in zip(corpus.words, corpus.surface_words()):
            assert tokenize(surface, corpus.alphabet) == w
            assert detokenize(w, corpus.alphabet) == normalize(surface)


def test_embedded_corpora_shapes():
    latin = load_embedded("latin")
    turkish = load_embedded("turkish")
    assert len(latin.words) == 35
    assert len(turkish.words) == 42
    assert latin.alphabet.d == LATIN_D
    assert turkish.alphabet.d == TURKISH_D
    assert turkish.alphabet.symbols[0] == "o"
    assert all(latin.words)  # no empty words


def test_latin_inventory_against_scan_oracle():
    # independent one-pass scan: NFC, then group base + combining marks
    latin = load_embedded("latin")
    seen = {}
    for surface in latin.surface_words():
        s = unicodedata.normalize("NFC", surface)
        i = 0
        while i < len(s):
            j = i + 1
            while j < len(s) and unicodedata.combining(s[j]):
                j += 1
            seen.setdefault(s[i:j])
            i = j
    assert tuple(seen) == latin.alphabet.symbols
    assert len(seen) == LATIN_D


def test_parse_corpus_comments_and_commas():
    corpus = parse_corpus(["# header", "ata,tad", "", "ata"], source="x")
    assert len(corpus.words) == 3
    assert corpus.source == "x"


def test_load_corpus_malformed_bytes(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"good\n\xff\xfe\n")
    from phonomem import load_corpus

    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_corpus_validation():
    al = build_inventory(["ata"])
    with pytest.raises(CorpusError, match="empty word"):
        Corpus(al, ((),))
    with pytest.raises(CorpusError, match="out-of-range"):
        Corpus(al, ((7,),))


def test_empty_word_reported_before_an_out_of_range_index():
    # Every word is checked for emptiness before any index is range-checked.
    al = build_inventory(["ata"])
    for words in (((7,), ()), ((), (7,)), ((0, -1), (1,), ())):
        with pytest.raises(CorpusError, match="empty word"):
            Corpus(al, words)


def test_alphabet_rejects_duplicates_and_bad_digraphs():
    with pytest.raises(ValueError, match="duplicate"):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError, match="unknown symbol"):
        Alphabet(("a",), digraphs=(("ch", "c"),))


def test_alphabet_membership_is_by_symbol():
    al = Alphabet(("a", "ʃ"), digraphs=(("sh", "ʃ"),))
    assert "a" in al and "ʃ" in al
    # A digraph spelling is not itself a symbol.
    assert "sh" not in al and "b" not in al and "" not in al


@given(st.lists(st.integers(min_value=0, max_value=LATIN_D - 1), max_size=12))
def test_word_round_trip_property(indices):
    al = load_embedded("latin").alphabet
    w = tuple(indices)
    assert tokenize(detokenize(w, al), al) == w


def test_alphabet_rejects_empty_spellings():
    with pytest.raises(ValueError, match="empty symbol"):
        Alphabet(("", "a"))
    with pytest.raises(ValueError, match="empty symbol"):
        Alphabet(("a",), digraphs=(("", "a"),))


def test_empty_digraph_spelling_rejected_before_splitting():
    # Splitting on an empty spelling never advances, so the call runs in a
    # child process that a timeout can stop.
    code = (
        "from phonomem import parse_corpus\n"
        "try:\n"
        "    parse_corpus(['ab'], digraph_table={'': 'x'})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    # The child imports the same package as this process, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(phonomem.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=30, env=env)
    assert done.stdout == "empty symbol or digraph spelling\n"
