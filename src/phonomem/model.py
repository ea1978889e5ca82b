"""Interaction tensors, word energies, and next-sound distributions.

The model couples sounds up to r_max positions apart through one d x d
matrix per range. A word's energy sums (g0 - g(r)[s(x), s(x+r)]) over every
ordered in-range pair; pairs that would extend past either end of the word
are dropped (open boundaries). Interactions are uniform in position by
construction. Lower energy means more probable.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .alphabet import Alphabet, Words, _check_indices


class _WorkRecord:
    """The work one thread (or one context) has counted. A plain class: a
    dataclass would cost every import, and so every CLI call, ~0.2 ms."""

    __slots__ = ("evals",)

    def __init__(self) -> None:
        self.evals = 0


# No shared default record: a new thread starts with an empty context, so
# each thread makes its own on first use and no count leaks between threads.
_WORK: ContextVar[Optional[_WorkRecord]] = ContextVar("phonomem_work", default=None)


def _work() -> _WorkRecord:
    record = _WORK.get()
    if record is None:
        record = _WorkRecord()
        _WORK.set(record)
    return record


def reset_eval_count() -> None:
    """Zero this thread's candidate-evaluation counter, which _cross_energies
    adds to."""
    _work().evals = 0


def eval_count() -> int:
    """Candidate evaluations this thread has made since its last reset, all
    counted in _cross_energies."""
    return _work().evals


# A list of only these is copied in one step rather than item by item: model
# meta carries the whole training word list.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _freeze(value: Any) -> Any:
    """Deep read-only copy of JSON-like data: mappings become read-only
    mappings and lists become tuples."""
    if isinstance(value, (dict, MappingProxyType)):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        flat = _SCALARS.issuperset(map(type, value))
        return tuple(value) if flat else tuple(map(_freeze, value))
    return value


@dataclass(frozen=True, eq=False)
class InteractionModel:
    """Trained sound-interaction tensors: g0 plus one nonnegative d x d
    matrix per range 1..r_max. Immutable after construction (g is a private
    read-only copy, meta a deep read-only copy); all read operations are
    safe for concurrent use. The cross terms g0 - g are computed once, here,
    into a read-only table that every scorer reads; the alphabet size d is
    read once, here, into a plain attribute."""

    alphabet: Alphabet
    r_max: int
    g0: float
    g: np.ndarray
    meta: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        g0 = float(self.g0)
        if not math.isfinite(g0):
            raise ValueError(f"g0 must be finite, got {g0}")
        d = self.alphabet.d
        if np.shape(self.g) != (self.r_max, d, d):
            raise ValueError(f"g must have shape {(self.r_max, d, d)}, got {np.shape(self.g)}")
        g = np.array(self.g, dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite interaction entries")
        if np.any(g < 0):
            raise ValueError("negative interaction entries")
        g.setflags(write=False)
        # The cross terms g0 - g, plus a row d of 0.0 per range: index d reads
        # as "no sound that far back". Summed onto 0.0, so a -0.0 term is
        # stored as +0.0, as the scorers' own 0.0 start would make it. A term
        # below -float64 max is stored as -inf, which the scorers take in.
        terms = np.zeros((self.r_max, d + 1, d))
        with np.errstate(over="ignore"):
            terms[:, :d] += g0 - g
        terms.setflags(write=False)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "meta", _freeze(self.meta))

    @cached_property
    def _term_lists(self) -> list:
        """The cross terms of real sounds as nested lists, ~20x faster than
        ndarray indexing in the pair walk; built on first use, and two
        threads racing on that build get equal lists."""
        return self._terms[:, : self.d].tolist()

    @classmethod
    def untrained(
        cls,
        alphabet: Alphabet,
        r_max: int = 3,
        g0: float = 1.0,
        meta: Optional[Mapping] = None,
    ) -> "InteractionModel":
        """All-zero tensors: every sound pair sits at the g0 baseline."""
        d = alphabet.d
        return cls(alphabet, r_max, g0, np.zeros((r_max, d, d)), meta or {})


def _pair_terms(m: InteractionModel, w: Sequence[int]) -> Iterator[tuple[int, int, float]]:
    """Each in-range ordered pair (x, x + r) of the word as (x, r, term), with
    term = g0 - g(r)[w[x], w[x + r]]: x ascending, then r. The one reader of
    the nested term lists. A symbol index outside 0..d-1 raises ValueError."""
    _check_indices(w, m.d)
    rows = m._term_lists
    n = len(w)
    for x in range(n - 1):
        row = w[x]
        for r in range(1, min(m.r_max, n - 1 - x) + 1):
            yield x, r, rows[r - 1][row][w[x + r]]


def word_energy(m: InteractionModel, w: Sequence[int]) -> float:
    """Total energy of a word: sum of (g0 - g(r)) couplings over all in-range
    ordered pairs, open boundaries. A symbol index outside 0..d-1 raises
    ValueError."""
    total = 0.0
    for _, _, term in _pair_terms(m, w):
        total += term
    return total


def boundary_energy(m: InteractionModel, prefix: Sequence[int], rest: Sequence[int]) -> float:
    """Energy of prefix + rest; the fixed prefix acts as a left boundary for
    the remaining sounds."""
    return word_energy(m, tuple(prefix) + tuple(rest))


def energy_profile(m: InteractionModel, w: Sequence[int]) -> list[float]:
    """Local energy per gap (between positions x and x+1): each pair term
    (x', x'+r) is added to every one of the r gaps it spans. Words shorter
    than two sounds have an empty profile. A symbol index outside 0..d-1
    raises ValueError."""
    gaps = [0.0] * max(0, len(w) - 1)
    for x, r, term in _pair_terms(m, w):
        for k in range(x, x + r):
            gaps[k] += term
    return gaps


def _cross_energies(
    m: InteractionModel, back: Sequence[Any], rows: tuple[int, ...] = ()
) -> np.ndarray:
    """Cross terms coupling each of the d candidate sounds to the sounds
    before it: back[r - 1] is the sound r places back, an int for one row or
    an int array of `rows` entries for one row per entry; index d means no
    sound that far back and reads the table's 0.0 row. Each range's rows are
    one gather from the precomputed g0 - g table. The sum starts from the
    first range's rows and adds the rest in r order; the table holds no
    -0.0, so it equals a sum from 0.0 bit for bit, and a row equals its
    one-row case. Adds d per row to eval_count()."""
    record = _WORK.get() or _work()
    record.evals += m.d * math.prod(rows)
    terms = m._terms
    if rows and len(back):
        # Index arrays: take gathers a range's rows about twice as fast as
        # fancy indexing, the first into a fresh array to sum into.
        cross = terms[0].take(back[0], 0)
        for r in range(1, len(back)):
            cross += terms[r].take(back[r], 0)
        return cross
    if len(back) < 2:
        # A copy: the table is read-only, and a caller may write to its row.
        return terms[0, back[0]].copy() if len(back) else np.zeros(rows + (m.d,))
    cross = terms[0, back[0]] + terms[1, back[1]]
    for r in range(2, len(back)):
        cross += terms[r, back[r]]
    return cross


def _next_cross(m: InteractionModel, prefix: Sequence[int]) -> np.ndarray:
    """Cross terms of the d candidate next sounds after an index-checked
    prefix: the terms coupling each candidate to the prefix's last r_max
    sounds. Counts d evaluations toward eval_count()."""
    return _cross_energies(m, prefix[: -m.r_max - 1 : -1])  # nearest sound first


def next_sound_energies(
    m: InteractionModel, prefix: Sequence[int], base: Optional[float] = None
) -> np.ndarray:
    """Boundary energy of prefix + s for each of the d candidate sounds s,
    computed as the prefix energy plus the candidate's cross terms: the pair
    terms coupling s to the last r_max sounds of the prefix (equal to the
    concatenated word energy up to float summation order). `base` stands in
    for the prefix energy; base=0 gives the cross terms alone. A symbol
    index outside 0..d-1 raises ValueError.

    Counts d evaluations toward eval_count()."""
    _check_indices(prefix, m.d)
    cross = _next_cross(m, prefix)
    return (word_energy(m, prefix) if base is None else base) + cross


def ranked_next_sounds(
    m: InteractionModel, prefix: Sequence[int], base: Optional[float] = None
) -> tuple[np.ndarray, list[int]]:
    """Candidate energies (as next_sound_energies) and the candidate sounds
    ordered by their cross terms alone, equal terms by symbol index. The
    prefix energy shifts every candidate equally, so the order depends only
    on the last r_max sounds of the prefix. Every generator picks by that
    tail from the same cross terms (_next_cross), but takes only what it
    needs of this order: greedy growth its first sound (argmin), gibberish
    its first or second, and BranchSpace.find one sound's rank, counted.
    A symbol index outside 0..d-1 raises ValueError."""
    _check_indices(prefix, m.d)
    cross = _next_cross(m, prefix)
    order = np.argsort(cross, kind="stable").tolist()
    return (word_energy(m, prefix) if base is None else base) + cross, order


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")


@dataclass(frozen=True, eq=False)
class NextSoundDistribution:
    """Thermal weights over the d candidate next sounds at inverse
    temperature beta."""

    energies: np.ndarray
    probabilities: np.ndarray
    beta: float


@np.errstate(over="ignore", invalid="ignore")  # one errstate per call
def next_sound_distribution(
    m: InteractionModel, prefix: Sequence[int], beta: float = 1.0
) -> NextSoundDistribution:
    """Softmax of -beta * candidate energies, computed with max-subtraction
    so large beta saturates instead of overflowing. beta=0 is uniform.
    Energies whose overflow leaves no probability defined raise ValueError."""
    _check_beta(beta)
    energies = next_sound_energies(m, prefix)
    weights = np.exp(-beta * (energies - energies.min()))
    total = weights.sum()  # each weight lies in [0, 1] or is nan
    if not math.isfinite(total):
        raise ValueError("energies overflow float64")
    return NextSoundDistribution(energies, weights / total, float(beta))


# Entries in one stacked (rows x d) array of the column and chain scorers,
# whose rows are parent nodes and word-steps: 2 MiB of float64. The chain
# scorer reads its word-steps from a word list's kept rows (`Words._rows`),
# so the rest of its memory is linear in the number of sounds.
_BLOCK = 1 << 18


def _blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of range(rows), each max(1, _BLOCK // width) rows
    or fewer, so a block's (rows x width) array stays near _BLOCK entries."""
    step = max(1, _BLOCK // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


@np.errstate(over="ignore", invalid="ignore")  # one errstate per call
def _score_rows(
    m: InteractionModel, stream: np.ndarray, reach: int, word: np.ndarray, at: np.ndarray,
    n: int, beta: float,
) -> np.ndarray:
    """Log chain probability totals of n words from their scored word-steps:
    row i scores the sound at position at[i] of a `_padded` stream as a step
    of word word[i], given the `reach` stream entries before it. Each word's
    rows must come in step order; rows of different words may interleave.

    Scored as one row program, as BranchSpace.columns is: every row is one
    row of a (word-steps x d) array of candidate cross energies, and each
    row takes one max-shifted log-softmax. A step's tail is read from the
    stream, whose padding stands for the sounds before a word's start;
    ranges past the stream's reach would only add the table's 0.0 row, so
    they are left out, and a wider reach only reads that row more often
    (the table holds no -0.0, so no bit changes). np.add.at is unbuffered
    and adds in index order, so each word's terms are summed in place in
    step order from 0.0, across block edges too, and every total equals
    the one-word chain bit for bit. A word with no row totals 0.0. A row
    whose largest scaled energy overflows has no defined log-softmax and
    raises ValueError. Counts d evaluations per row toward eval_count()."""
    totals = np.zeros(n)
    back = np.arange(reach + 1)[:, None]  # the sound, then its tail by range
    for rows in _blocks(len(word), m.d):
        w = word[rows]
        sounds = stream[at[rows] - back]
        cross = _cross_energies(m, sounds[1:], w.shape)
        cross *= -beta
        cross -= np.maximum.reduce(cross, axis=1, keepdims=True)
        norm = np.log(np.add.reduce(np.exp(cross), axis=1))
        said = cross.take(sounds[0] + np.arange(0, cross.size, m.d))
        np.add.at(totals, w, said - norm)
    # A row's norm is NaN exactly where its shift is not finite, and a total
    # is NaN exactly where one of its rows' norms is.
    if math.isnan(np.add.reduce(totals)):
        raise ValueError("energies overflow float64")
    return totals


def _log_chain_probabilities(
    m: InteractionModel, words: Sequence[Sequence[int]], start: int, beta: float
) -> np.ndarray:
    """Log chain probability of each word's sounds from position `start` on,
    each given the sounds before it; see log_chain_probability. The scored
    steps are the words' rows (`Words._rows`) from position `start` on, so a
    `Words` lays its rows out once per model shape and keeps them."""
    words = words if isinstance(words, Words) else Words(words)
    stream, reach, at, word, pos, _ = words._rows(m.d, m.r_max)
    scored = pos >= start
    return _score_rows(m, stream, reach, word[scored], at[scored], len(words), beta)


def log_chain_probability(
    m: InteractionModel,
    prefix: Sequence[int],
    continuation: Sequence[int],
    beta: float = 1.0,
) -> float:
    """Log of sequence_probability, summed as one max-shifted log-softmax term
    per appended sound. The prefix energy shifts every candidate equally and
    cancels, so only the cross terms are scored (O(N) per word). A symbol
    index outside 0..d-1 raises ValueError."""
    _check_beta(beta)
    p = tuple(prefix)
    word = p + tuple(continuation)
    _check_indices(word, m.d)
    return float(_log_chain_probabilities(m, [word], len(p), beta)[0])


def sequence_probability(
    m: InteractionModel,
    prefix: Sequence[int],
    continuation: Sequence[int],
    beta: float = 1.0,
) -> float:
    """Chain probability of the continuation given the prefix: the product of
    one conditional next-sound factor per appended sound (empty product = 1)."""
    return math.exp(log_chain_probability(m, prefix, continuation, beta))


def ablate(m: InteractionModel, ranges: Iterable[int]) -> InteractionModel:
    """Copy of the model with g(r) zeroed for each r in ranges; the original
    is untouched."""
    ranges = set(ranges)
    bad = ranges - set(range(1, m.r_max + 1))
    if bad:
        raise ValueError(f"ranges outside 1..{m.r_max}: {sorted(bad)}")
    g = m.g.copy()
    for r in ranges:
        g[r - 1] = 0.0
    meta = dict(m.meta)
    if ranges:
        meta["ablated"] = sorted(set(meta.get("ablated", ())) | ranges)
    return InteractionModel(m.alphabet, m.r_max, m.g0, g, meta)


def mean_interaction(m: InteractionModel, r: int) -> float:
    """Arithmetic mean of the d*d entries of g(r), finite for any model."""
    if not 1 <= r <= m.r_max:
        raise ValueError(f"range {r} outside 1..{m.r_max}")
    g = m.g[r - 1]
    with np.errstate(over="ignore"):
        mean = float(g.mean())
    # Only a sum past float64 is scaled, by the largest entry, into [0, 1]:
    # every finite mean keeps its bits.
    return mean if math.isfinite(mean) else float(g.max() * (g / g.max()).mean())
