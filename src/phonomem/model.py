"""Interaction tensors, word energies, and next-sound distributions.

The model couples sounds up to r_max positions apart through one d x d
matrix per range. A word's energy sums (g0 - g(r)[s(x), s(x+r)]) over every
ordered in-range pair; pairs that would extend past either end of the word
are dropped (open boundaries). Interactions are uniform in position by
construction. Lower energy means more probable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Any, Iterable, Mapping, Optional, Sequence

import numpy as np

from .alphabet import Alphabet, _check_indices

_EVALS = 0


def reset_eval_count() -> None:
    """Zero the candidate-evaluation counter that _cross_energies adds to
    (test instrumentation only; not thread-safe)."""
    global _EVALS
    _EVALS = 0


def eval_count() -> int:
    """Candidate evaluations since the last reset, all counted in _cross_energies."""
    return _EVALS


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


def _thaw(value: Any) -> Any:
    """Plain JSON-ready copy of _freeze output: dicts and lists again."""
    if isinstance(value, MappingProxyType):
        return {k: _thaw(v) for k, v in value.items()}
    if isinstance(value, tuple):
        flat = _SCALARS.issuperset(map(type, value))
        return list(value) if flat else list(map(_thaw, value))
    return value


@dataclass(frozen=True, eq=False)
class InteractionModel:
    """Trained sound-interaction tensors: g0 plus one nonnegative d x d
    matrix per range 1..r_max. Immutable after construction (meta is kept
    as a deep read-only copy); all read operations are safe for concurrent
    use."""

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
        # One private buffer, g plus a row d of g0 per range: index d reads as
        # "no sound that far back", and its cross term g0 - g0 adds 0.0.
        padded = np.empty((self.r_max, d + 1, d))
        padded[:, :d] = self.g
        padded[:, d] = g0
        padded.setflags(write=False)
        g = padded[:, :d]
        if not np.all(np.isfinite(g)):
            raise ValueError("non-finite interaction entries")
        if np.any(g < 0):
            raise ValueError("negative interaction entries")
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g0", g0)
        object.__setattr__(self, "meta", _freeze(self.meta))
        # Nested lists give ~20x faster scalar access than ndarray indexing
        # in the per-pair loops below.
        object.__setattr__(self, "_rows", g.tolist())

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

    @property
    def d(self) -> int:
        return self.alphabet.d


def word_energy(m: InteractionModel, w: Sequence[int]) -> float:
    """Total energy of a word: sum of (g0 - g(r)) couplings over all in-range
    ordered pairs, open boundaries."""
    rows = m._rows
    g0 = m.g0
    r_max = m.r_max
    n = len(w)
    total = 0.0
    for x in range(n - 1):
        top = min(r_max, n - 1 - x)
        row = w[x]
        for r in range(1, top + 1):
            total += g0 - rows[r - 1][row][w[x + r]]
    return total


def boundary_energy(m: InteractionModel, prefix: Sequence[int], rest: Sequence[int]) -> float:
    """Energy of prefix + rest; the fixed prefix acts as a left boundary for
    the remaining sounds."""
    return word_energy(m, tuple(prefix) + tuple(rest))


def energy_profile(m: InteractionModel, w: Sequence[int]) -> list[float]:
    """Local energy per gap (between positions x and x+1): each pair term
    (x', x'+r) is added to every one of the r gaps it spans. Words shorter
    than two sounds have an empty profile."""
    rows = m._rows
    g0 = m.g0
    n = len(w)
    gaps = [0.0] * max(0, n - 1)
    for x in range(n - 1):
        top = min(m.r_max, n - 1 - x)
        row = w[x]
        for r in range(1, top + 1):
            term = g0 - rows[r - 1][row][w[x + r]]
            for k in range(x, x + r):
                gaps[k] += term
    return gaps


def _cross_energies(
    m: InteractionModel, back: Sequence[Any], rows: tuple[int, ...] = ()
) -> np.ndarray:
    """Cross terms coupling each of the d candidate sounds to the sounds
    before it: back[r - 1] is the sound r places back, an int for one row or
    an int array of `rows` entries for one row per entry; index d means no
    sound that far back and adds 0.0. Ranges are summed in r order, so a row
    equals its one-row case bit for bit. Adds d per row to eval_count()."""
    global _EVALS
    _EVALS += m.d * math.prod(rows)
    cross = np.zeros(rows + (m.d,))
    for r, s in enumerate(back, 1):
        cross += m.g0 - m._padded[r - 1][s]
    return cross


def next_sound_energies(
    m: InteractionModel, prefix: Sequence[int], base: Optional[float] = None
) -> np.ndarray:
    """Boundary energy of prefix + s for each of the d candidate sounds s,
    computed as the prefix energy plus the candidate's cross terms: the pair
    terms coupling s to the last r_max sounds of the prefix (equal to the
    concatenated word energy up to float summation order). `base` stands in
    for the prefix energy; base=0 gives the cross terms alone.

    Counts d evaluations toward eval_count()."""
    cross = _cross_energies(m, prefix[: -m.r_max - 1 : -1])  # nearest sound first
    return (word_energy(m, prefix) if base is None else base) + cross


def ranked_next_sounds(
    m: InteractionModel, prefix: Sequence[int], base: Optional[float] = None
) -> tuple[np.ndarray, list[int]]:
    """Candidate energies (as next_sound_energies) and the candidate sounds
    ordered by their cross terms alone, equal terms by symbol index. The
    prefix energy shifts every candidate equally, so the order depends only
    on the last r_max sounds of the prefix; every generator ranks by that
    tail and adds the prefix energy only where it reports an energy."""
    cross = _cross_energies(m, prefix[: -m.r_max - 1 : -1])  # nearest sound first
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


def next_sound_distribution(
    m: InteractionModel, prefix: Sequence[int], beta: float = 1.0
) -> NextSoundDistribution:
    """Softmax of -beta * candidate energies, computed with max-subtraction
    so large beta saturates instead of overflowing. beta=0 is uniform."""
    _check_beta(beta)
    energies = next_sound_energies(m, prefix)
    weights = np.exp(-beta * (energies - energies.min()))
    return NextSoundDistribution(energies, weights / weights.sum(), float(beta))


# Entries in one stacked (rows x d) array of the column and chain scorers:
# 2 MiB of float64, so memory stays flat however long the lexicon or wide the
# branch space.
_BLOCK = 1 << 18


def _blocks(rows: int, width: int) -> list[slice]:
    """Consecutive slices of range(rows), each max(1, _BLOCK // width) rows
    or fewer, so a block's (rows x width) array stays near _BLOCK entries."""
    step = max(1, _BLOCK // width)
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _log_chain_probabilities(
    m: InteractionModel, words: Sequence[Sequence[int]], start: int, beta: float
) -> np.ndarray:
    """Log chain probability of each word's sounds from position `start` on,
    each given the sounds before it; see log_chain_probability.

    Scored as one array program: every scored word-step of a block of words
    is one row of a (word-steps x d) array of candidate cross energies, and
    each row takes one max-shifted log-softmax. Each word's terms are then
    summed in step order, so every total equals the one-word chain bit for
    bit. Counts d evaluations per scored word-step toward eval_count()."""
    d, r_max = m.d, m.r_max
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    longest = int(lengths.max(initial=0))
    position = np.arange(longest)
    inside = position < lengths[:, None]
    # r_max leading columns of index d: no sound that far back.
    padded = np.full((len(words), r_max + longest), d, dtype=np.intp)
    padded[:, r_max:][inside] = np.fromiter(
        chain.from_iterable(words), dtype=np.intp, count=int(lengths.sum())
    )
    scored = inside & (position >= start)
    totals = np.zeros(len(words))
    for rows in _blocks(len(words), d * max(1, longest - start)):
        block = scored[rows]
        word, step = np.nonzero(block)  # row-major: each word's steps in order
        word += rows.start
        at = step + r_max  # each scored sound's column in padded
        cross = _cross_energies(m, [padded[word, at - r] for r in range(1, r_max + 1)], at.shape)
        cross *= -beta
        cross -= np.maximum.reduce(cross, axis=1)[:, None]
        norm = np.log(np.add.reduce(np.exp(cross), axis=1))
        terms = np.zeros(block.shape)
        terms[block] = cross.take(np.arange(len(word)) * d + padded[word, at]) - norm
        for j in range(start, longest):
            totals[rows] += terms[:, j]
    return totals


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
    """Arithmetic mean of the d*d entries of g(r)."""
    if not 1 <= r <= m.r_max:
        raise ValueError(f"range {r} outside 1..{m.r_max}")
    return float(m.g[r - 1].mean())
