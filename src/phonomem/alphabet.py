"""Symbol inventories, tokenization, and word-list corpora.

A Word is a tuple of indices into an ordered Alphabet. Symbols are Unicode
grapheme clusters (composed normal form: base character plus any trailing
combining marks); an optional digraph table turns multi-character spellings
into single symbols. First-appearance order over the ingested corpus fixes
the symbol indices, and that order is the tie-break order everywhere
downstream.
"""

from __future__ import annotations

import operator
import unicodedata
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, pairwise
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import CorpusError, UnknownSymbolError

Word = tuple[int, ...]

EMBEDDED_CORPORA = ("latin", "turkish")


def normalize(text: str) -> str:
    """Composed (NFC) normalization; applied before any clustering."""
    return unicodedata.normalize("NFC", text)


# One line's tokens before NFC: _read_tokens reads the same tokens from all
# lines in one pass.
def _split_tokens(line: str) -> list[str]:
    if line.lstrip().startswith("#"):
        return []
    return line.replace(",", " ").split()


def _check_spellings(spellings: Iterable[str]) -> None:
    # _split would never advance past an empty spelling.
    if "" in spellings:
        raise ValueError("empty symbol or digraph spelling")


def _split(
    text: str, spellings: Mapping[str, str], lengths: Sequence[int]
) -> Iterator[tuple[int, str]]:
    """Split normalized text into (offset, symbol) pairs: the longest key of
    `spellings` wins (`lengths`: their distinct lengths, longest first),
    otherwise one base character plus its trailing combining marks."""
    i = 0
    while i < len(text):
        for n in lengths:
            symbol = spellings.get(text[i : i + n])
            if symbol is not None:
                break
        else:
            n = 1
            while i + n < len(text) and unicodedata.combining(text[i + n]):
                n += 1
            symbol = text[i : i + n]
        yield i, symbol
        i += n


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol inventory; immutable, safe to share across threads."""

    symbols: tuple[str, ...]
    digraphs: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("empty alphabet")
        spellings = dict(self.digraphs)
        spellings.update({s: s for s in self.symbols})
        _check_spellings(spellings)
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in alphabet")
        index = {s: i for i, s in enumerate(self.symbols)}
        for spelling, symbol in self.digraphs:
            if symbol not in index:
                raise ValueError(f"digraph {spelling!r} maps to unknown symbol {symbol!r}")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_spellings", spellings)
        object.__setattr__(self, "_lengths", sorted({len(k) for k in spellings}, reverse=True))
        # With no digraphs and every symbol one character, _split looks up
        # each character as a spelling first, so it yields a known text's
        # characters one by one.
        object.__setattr__(
            self, "_per_char", not self.digraphs and all(len(s) == 1 for s in self.symbols)
        )

    @property
    def d(self) -> int:
        return len(self.symbols)

    def index_of(self, symbol: str) -> int:
        return self._index[symbol]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index


def _read_tokens(
    lines: Iterable[str], digraph_table: Optional[Mapping[str, str]]
) -> tuple[Alphabet, list[str], Optional[np.ndarray]]:
    """Whole-text passes over the lines: the alphabet of `build_inventory`,
    every token of the lines, normalized, in order, and, when every symbol
    is one character, the tokens' symbol indices in order with index d
    between tokens, in the narrowest type that holds d (else None)."""
    digraphs = dict(digraph_table or {})
    _check_spellings(digraphs)
    lines = list(lines)
    text = "\n".join(lines)
    try:
        # A surrogate code point is what no UTF-8 byte sequence decodes to,
        # and exactly what a UTF-16 encode refuses.
        text.encode("utf-16-le")
    except UnicodeEncodeError as exc:
        lineno = bisect(list(accumulate(len(line) + 1 for line in lines)), exc.start) + 1
        raise CorpusError(f"line {lineno}: malformed byte sequence") from None
    if "#" in text:
        text = "\n".join([line for line in lines if not line.lstrip().startswith("#")])
    # One NFC over the text gives each token's own NFC: every separator of
    # str.split is a starter that no canonical composition takes part in,
    # and the only ones NFC changes, U+2000 and U+2001, become U+2002 and
    # U+2003, which are separators too.
    texts = normalize(text.replace(",", " ")).split()
    if not texts:
        raise CorpusError("empty corpus")
    if not digraphs:
        # With no digraphs and no combining mark, _split yields each
        # character. The code points are read as one array, the tokens
        # joined by spaces: the distinct ones but the space, ordered by
        # first appearance, are the alphabet, and one lookup turns every
        # code point into its symbol index and every space into index d.
        joined = " ".join(texts)
        codes = np.frombuffer(joined.encode("utf-32-le"), dtype="<u4")
        present = np.zeros(max(int(codes.max()), 32) + 1, dtype=bool)
        present[codes] = True
        present[32] = False
        chars = sorted(map(chr, np.flatnonzero(present).tolist()), key=joined.find)
        if not any(map(unicodedata.combining, chars)):
            d = len(chars)
            lookup = np.full(len(present), d, dtype=np.min_scalar_type(d))
            lookup[list(map(ord, chars))] = np.arange(d)
            return Alphabet(tuple(chars)), texts, lookup[codes]
    lengths = sorted({len(k) for k in digraphs}, reverse=True)
    seen: dict[str, None] = {}
    for text in texts:
        for _, symbol in _split(text, digraphs, lengths):
            seen.setdefault(symbol)
    return Alphabet(tuple(seen), tuple(digraphs.items())), texts, None


def build_inventory(
    lines: Iterable[str], digraph_table: Optional[Mapping[str, str]] = None
) -> Alphabet:
    """Collect every distinct symbol over the input lines, in first-appearance
    order. Lines starting with '#' are comments; commas count as whitespace."""
    return _read_tokens(lines, digraph_table)[0]


def tokenize(text: str, alphabet: Alphabet) -> Word:
    """Map a surface string to symbol indices; the longest known spelling wins
    at each position."""
    s = normalize(text)
    if alphabet._per_char:
        try:
            return tuple(map(alphabet._index.__getitem__, s))
        except KeyError:
            pass  # the split below names the unknown symbol and its offset
    out: list[int] = []
    for offset, symbol in _split(s, alphabet._spellings, alphabet._lengths):
        idx = alphabet._index.get(symbol)
        if idx is None:
            raise UnknownSymbolError(symbol, len(s[:offset].encode("utf-8")))
        out.append(idx)
    return tuple(out)


def _check_indices(word: Sequence[int], d: int) -> None:
    for i in word:
        if not 0 <= i < d:
            raise ValueError(f"symbol index {i} out of range 0..{d - 1}")


def detokenize(word: Sequence[int], alphabet: Alphabet) -> str:
    """Concatenate symbol spellings; inverse of tokenize on valid words."""
    _check_indices(word, alphabet.d)
    return "".join(alphabet.symbols[i] for i in word)


class Words(tuple):
    """An immutable word list that compares, hashes, iterates and dumps to
    JSON as the plain tuple of its words, and answers "which words start
    with this prefix" from an index by first sound, built on first use."""

    @cached_property
    def _stream(self) -> np.ndarray:
        """The words' indices end to end: the parse's own index array, else
        built on first use in int32. Exact only for checked integer indices
        (`Corpus` checks every index): np.fromiter reads 1.5 as 1."""
        return np.fromiter(chain.from_iterable(self), dtype=np.int32)

    @cached_property
    def _by_head(self) -> dict[Word, list[Word]]:
        by_head: dict[Word, list[Word]] = {}
        for w in self:
            by_head.setdefault(w[:1], []).append(w)
        return by_head

    def starting_with(self, prefix: Sequence[int]) -> list[Word]:
        """The words that start with `prefix`, in list order, duplicates
        included; every word for an empty prefix."""
        p = tuple(prefix)
        if not p:
            return list(self)
        return [w for w in self._by_head.get(p[:1], ()) if w[: len(p)] == p]


@dataclass(frozen=True)
class Corpus:
    """A tokenized word list plus the alphabet it was ingested under. The
    words are stored as a `Words` (each word a tuple), so a corpus is
    immutable and hashable, and a prefix lookup reads only the words under
    the prefix's first sound."""

    alphabet: Alphabet
    words: Words
    source: str = "<memory>"

    def __post_init__(self) -> None:
        if not isinstance(self.words, Words):
            object.__setattr__(self, "words", Words(map(tuple, self.words)))
        if not all(self.words):
            raise CorpusError("empty word in corpus")
        if "_stream" in vars(self.words):
            # Every index came from the parse's lookup or passed the check
            # below once: its extremes are one array pass.
            used = (self.words._stream.min(initial=0), self.words._stream.max(initial=0))
        else:
            try:
                used = set(map(operator.index, chain.from_iterable(self.words)))
            except TypeError:
                raise CorpusError("word with non-integer symbol index") from None
        if used and (min(used) < 0 or max(used) >= self.alphabet.d):
            raise CorpusError("word with out-of-range symbol index")

    @cached_property
    def _surface(self) -> tuple[str, ...]:
        """Each word spelled out; set in advance by `parse_corpus` when each
        token it read is its word's spelling."""
        # __post_init__ has range-checked every index, so no per-symbol check.
        symbols = self.alphabet.symbols
        return tuple(["".join([symbols[i] for i in w]) for w in self.words])

    def surface_words(self) -> list[str]:
        return list(self._surface)

    def sha256(self) -> str:
        """Platform-stable digest of the normalized word list."""
        return surface_digest(self._surface)


def surface_digest(surface_words: Sequence[str]) -> str:
    """The digest `Corpus.sha256` gives for these surface words."""
    # Imported here: only training and digests need it, and loading OpenSSL
    # costs every other import of the package ~3 ms.
    import hashlib

    return hashlib.sha256("\n".join(surface_words).encode("utf-8")).hexdigest()


def parse_corpus(
    lines: Iterable[str],
    source: str = "<memory>",
    digraph_table: Optional[Mapping[str, str]] = None,
) -> Corpus:
    alphabet, texts, cut = _read_tokens(lines, digraph_table)
    if cut is None:
        return Corpus(alphabet, Words([tokenize(t, alphabet) for t in texts]), source)
    # Per character: each token is its own word's spelling. The words keep
    # their indices end to end, in the narrowest type that holds d - 1, as
    # their stream.
    d = alphabet.d
    sounds = cut[cut != d].astype(np.min_scalar_type(d - 1), copy=False)
    if cut.itemsize == 1:
        # d <= 255: index d ends each word, so one bytes split cuts them all.
        words = Words(map(tuple, cut.tobytes().split(bytes([d]))))
    else:
        # Each word is cut from the stream by its length. Slices of bytes
        # (one byte per index, d = 256) turn into tuples fastest.
        stream = sounds.tobytes() if sounds.itemsize == 1 else memoryview(sounds)
        bounds = pairwise(accumulate(map(len, texts), initial=0))
        words = Words([tuple(stream[i:j]) for i, j in bounds])
    words._stream = sounds
    corpus = Corpus(alphabet, words, source)
    object.__setattr__(corpus, "_surface", tuple(texts))
    return corpus


def load_corpus(path, digraph_table: Optional[Mapping[str, str]] = None) -> Corpus:
    """Read a UTF-8 word-list file (words split on whitespace, commas, and
    newlines; '#' lines are comments)."""
    data = Path(path).read_bytes()
    lines = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}: line {lineno}: malformed byte sequence ({exc.reason})"
            ) from exc
    return parse_corpus(lines, source=str(path), digraph_table=digraph_table)


def load_embedded(name: str) -> Corpus:
    """Load one of the corpora shipped with the package ('latin', 'turkish')."""
    if name not in EMBEDDED_CORPORA:
        raise CorpusError(
            f"no embedded corpus {name!r}; available: {', '.join(EMBEDDED_CORPORA)}"
        )
    # Imported here: only the embedded lists need it, and it costs the CLI
    # start-up ~15 ms.
    from importlib import resources

    text = resources.files("phonomem").joinpath(f"data/{name}.txt").read_text("utf-8")
    return parse_corpus(text.split("\n"), source=f"embedded:{name}")
