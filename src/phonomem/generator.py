"""Generation and prediction on top of a trained interaction model.

Covers greedy sound-by-sound growth, ranked alternatives via hard exclusion
of better candidates, bounded enumeration of the branching space of
prefixes, randomized low-rank growth ("gibberish"), periodic steady-state
detection, segmentation at high-energy gaps, and completion ranking for a
listener holding a partial word.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import AbstractSet, Iterator, Optional, Sequence

import numpy as np

from .alphabet import Corpus, Word, _check_indices
from .errors import SectorExhaustedError
from .model import (
    InteractionModel,
    _blocks,
    _check_beta,
    _cross_energies,
    _log_chain_probabilities,
    _next_cross,
    energy_profile,
    ranked_next_sounds,
    word_energy,
)

# Exact sound sequences excluded from growth; the infinite-penalty limit of
# penalizing already-found words.
PenaltySet = AbstractSet[Word]


def grow_greedy(
    m: InteractionModel,
    prefix: Sequence[int],
    steps: int,
    penalties: PenaltySet = frozenset(),
) -> Word:
    """Append `steps` sounds, each the lowest-boundary-energy candidate whose
    resulting word is not excluded. Ties break to the lowest symbol index.
    Evaluates all d candidates at every step; the candidates are sorted
    only at a step whose first choice is excluded."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    w = tuple(prefix)
    _check_indices(w, m.d)
    for _ in range(steps):
        cross = _next_cross(m, w)
        s = int(cross.argmin())  # a stable sort's first sound: no term is NaN
        if w + (s,) in penalties:
            order = np.argsort(cross, kind="stable").tolist()
            s = next((s for s in order if w + (s,) not in penalties), None)
        if s is None:
            raise SectorExhaustedError(
                f"sector exhausted: all {m.d} continuations of a "
                f"{len(w)}-sound prefix are excluded"
            )
        w += (s,)
    return w


def next_ranked(m: InteractionModel, prefix: Sequence[int], rank: int) -> int:
    """Candidate sound with the (rank+1)-th smallest cross term after the
    prefix; rank 0 is the greedy choice. Equal terms order by symbol index."""
    if not 0 <= rank < m.d:
        raise ValueError(f"rank {rank} outside 0..{m.d - 1}")
    return ranked_next_sounds(m, prefix, base=0.0)[1][rank]


@dataclass(eq=False)
class BranchNode:
    """One word in the branching space. depth_down is its rank among its
    siblings (0 = ground), ordered by the cross term of its last sound alone,
    ties by symbol index. energy is the parent's energy plus that cross term,
    so sibling energies are nondecreasing in depth_down."""

    word: Word
    energy: float
    col: int
    depth_down: int
    parent: Optional["BranchNode"] = field(default=None, repr=False)
    children_right: list["BranchNode"] = field(default_factory=list, repr=False)


class BranchColumn(Sequence[BranchNode]):
    """The nodes of one word length as arrays: each node's `parent` (its
    index in the previous column; -1 at the root), last `symbol`, `rank`
    (depth_down) and `energy`. Nodes run parent-major, siblings in rank
    order, so each parent's children are one contiguous run. Indexing builds
    every BranchNode of the space, once; `len` and the arrays build none."""

    def __init__(self, nodes: "_Nodes", col: int, parent, symbol, rank, energy) -> None:
        self._nodes, self._col = nodes, col
        self.parent, self.symbol, self.rank, self.energy = parent, symbol, rank, energy
        nodes.arrays.append((parent, symbol, rank, energy))

    def __len__(self) -> int:
        return len(self.energy)

    def __getitem__(self, i):
        return self._nodes.built[self._col][i]


class _Nodes:
    """The BranchNodes of one space, built once, on first use, from the
    arrays its columns register here. It refers to no column and no space,
    so no reference cycle holds a dropped space's arrays until the cyclic
    collector runs."""

    def __init__(self, prefix: Word) -> None:
        self.prefix = prefix
        self.arrays: list[tuple] = []

    @cached_property
    def built(self) -> list[list[BranchNode]]:
        (_, _, _, energy), *rest = self.arrays
        built = [[BranchNode(self.prefix, energy.item(), 0, 0)]]
        for col, (parent, symbol, rank, energy) in enumerate(rest, 1):
            ups = [built[-1][i] for i in parent.tolist()]
            arrays = zip(ups, symbol.tolist(), rank.tolist(), energy.tolist())
            built.append([BranchNode(up.word + (s,), e, col, r, up) for up, s, r, e in arrays])
            for node in built[-1]:
                node.parent.children_right.append(node)
        return built


class BranchSpace:
    """Tree of prefixes reachable from a root by growth moves (right: append
    the lowest-energy next sound) and rank moves (down: re-solve the same
    growth step with all higher-ranked siblings excluded, stepping one
    sibling deeper).

    A word whose per-step sibling ranks sum to k needs k down moves, so the
    space holds every word with at most max_depth_right appended sounds and
    rank sum <= max_depth_down - 1; max_depth_down=1 is the bare greedy
    path. Membership (`find`) costs O(N d) candidate evaluations and never
    builds the tree; `columns` builds it on first use as arrays, one array
    call per column at d candidate evaluations per expanded node, and grows
    combinatorially with max_depth_down, so keep depths modest when
    exporting. BranchNode objects are made only on request (`root`, `nodes`,
    indexing a column). Deterministic throughout. A prefix symbol index
    outside 0..d-1 raises ValueError.
    """

    def __init__(
        self,
        model: InteractionModel,
        prefix: Sequence[int],
        max_depth_right: int,
        max_depth_down: int,
    ) -> None:
        if max_depth_right < 1 or max_depth_down < 1:
            raise ValueError("depths must be >= 1")
        self.model = model
        self.prefix: Word = tuple(prefix)
        _check_indices(self.prefix, model.d)
        self.max_depth_right = max_depth_right
        self.max_depth_down = max_depth_down

    @property
    def root(self) -> BranchNode:
        return self.columns[0][0]

    def nodes(self) -> Iterator[BranchNode]:
        for column in self.columns:
            yield from column

    @cached_property
    def columns(self) -> list[BranchColumn]:
        """The nodes, one column per word length, built on first use."""
        m, d, p = self.model, self.model.d, self.prefix
        energy = np.array([word_energy(m, p)])
        budget = np.array([self.max_depth_down - 1])
        # tails[r - 1]: each node's sound r places back, for the r the word reaches.
        tails = [np.array([s]) for s in p[: -m.r_max - 1 : -1]]
        nodes = _Nodes(p)
        columns = [BranchColumn(nodes, 0, np.array([-1]), np.array([-1]), np.array([0]), energy)]
        for col in range(1, self.max_depth_right + 1):
            width = min(d, int(budget.max()) + 1)
            grown = []
            for rows in _blocks(len(budget), d):
                left = budget[rows]
                scored = _cross_energies(m, [t[rows] for t in tails], left.shape)
                # Equal terms rank by symbol index, as in a stable sort. A
                # parent with no down budget left needs only its first sound:
                # argmin's first minimum (no term is NaN: g0 and g are finite).
                order = np.zeros((len(left), width), np.intp)
                order[:, 0] = np.argmin(scored, axis=1)
                wide = np.nonzero(left)[0]
                order[wide] = np.argsort(scored[wide], axis=1, kind="stable")[:, :width]
                parent, rank = np.nonzero(np.arange(width) <= left[:, None])
                symbol = order[parent, rank]
                grown.append((parent + rows.start, symbol, rank, scored[parent, symbol]))
            parent, symbol, rank, cross = map(np.concatenate, zip(*grown))
            energy = energy[parent] + cross
            columns.append(BranchColumn(nodes, col, parent, symbol, rank, energy))
            budget = budget[parent] - rank
            tails = ([symbol] + [t[parent] for t in tails])[: m.r_max]
        return columns

    def find(self, word: Sequence[int]) -> Optional[BranchNode]:
        """The node holding this exact word, or None when it lies outside the
        depth budgets. Each step counts the said sound's rank among the
        candidates' cross terms as a stable sort ranks them (the smaller
        terms, plus the equal ones at a lower symbol index) without sorting.
        Returned nodes are detached (no parent/child links). A symbol index
        outside 0..d-1 raises ValueError."""
        w = tuple(word)
        _check_indices(w, self.model.d)
        p = self.prefix
        if w[: len(p)] != p or not 0 <= len(w) - len(p) <= self.max_depth_right:
            return None
        budget = self.max_depth_down - 1
        energy = word_energy(self.model, p)
        last_rank = 0
        for k in range(len(p), len(w)):
            cross = _next_cross(self.model, w[:k])
            c = cross[w[k]]
            last_rank = int(np.count_nonzero(cross < c) + np.count_nonzero(cross[: w[k]] == c))
            energy += float(c)
            budget -= last_rank
            if budget < 0:
                return None
        return BranchNode(w, energy, col=len(w) - len(p), depth_down=last_rank)

    def __contains__(self, word: Sequence[int]) -> bool:
        return self.find(word) is not None


enumerate_branch_space = BranchSpace


@dataclass(frozen=True)
class GibberishPolicy:
    """Randomized growth policy: take the next-to-lowest sound with
    probability p_next (default one in five), otherwise the lowest. Growth
    stops early before a sound that would add more than stop_tau energy
    (default: never). The seeded generator fully determines the output."""

    max_length: int
    p_next: float = 0.2
    seed: int = 0
    stop_tau: float = math.inf

    def __post_init__(self) -> None:
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if not 0.0 <= self.p_next <= 1.0:
            raise ValueError("p_next must be in [0, 1]")
        if math.isnan(self.stop_tau):
            raise ValueError("stop_tau must not be NaN")


def gibberish(
    m: InteractionModel, prefix: Sequence[int], policy: GibberishPolicy
) -> tuple[Word, list[float]]:
    """Grow the prefix to policy.max_length sounds under the policy's die, or
    until the chosen sound would add more than policy.stop_tau energy, and
    return the word with its per-gap energy profile. p_next=0 with no stop
    reproduces grow_greedy exactly; a fixed seed gives byte-identical
    output across runs and platforms."""
    rng = random.Random(policy.seed)
    w = tuple(prefix)
    _check_indices(w, m.d)
    while len(w) < policy.max_length:
        rank = 1 if (rng.random() < policy.p_next and m.d > 1) else 0
        cross = _next_cross(m, w)
        # argmin is a stable sort's first sound (no term is NaN); only a
        # rank-1 step sorts.
        s = int(cross.argmin()) if rank == 0 else int(np.argsort(cross, kind="stable")[1])
        if cross[s] > policy.stop_tau:
            break
        w += (s,)
    return w, energy_profile(m, w)


def detect_steady_state(w: Sequence[int], window: int) -> Optional[int]:
    """Smallest period p <= window whose pattern fills the trailing 2p sounds,
    or None when no such period exists."""
    if window < 1:
        raise ValueError("window must be >= 1")
    w = tuple(w)
    for p in range(1, min(window, len(w) // 2) + 1):
        if w[-2 * p : -p] == w[-p:]:
            return p
    return None


def segment(m: InteractionModel, w: Sequence[int], threshold: float) -> list[Word]:
    """Cut the word at every gap whose local energy exceeds the threshold.

    A cut severs every pair term spanning that gap, so the total energy of
    the parts equals the original energy minus the severed terms (each
    counted once). A symbol index outside 0..d-1 raises ValueError."""
    if not threshold >= 0:  # also rejects NaN, which would never cut
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    w = tuple(w)
    if not w:
        return []
    parts: list[Word] = []
    start = 0
    for i, gap_energy in enumerate(energy_profile(m, w)):
        if gap_energy > threshold:
            parts.append(w[start : i + 1])
            start = i + 1
    parts.append(w[start:])
    return parts


def predict_completions(
    m: InteractionModel,
    prefix: Sequence[int],
    lexicon: Corpus,
    beta: float = 1.0,
) -> list[tuple[Word, float]]:
    """Rank every lexicon word that starts with the prefix by the chain
    probability of its continuation, descending; ties order by word. Ranking
    uses log-probabilities, so probabilities that underflow to 0.0 still
    order correctly. All matches are scored together as one array program,
    each to the value log_chain_probability gives it. The words under the
    prefix come from the lexicon's index by first sound (`Words`), built on
    first use. A prefix matching nothing yields an empty list; a prefix
    symbol index outside 0..d-1 raises ValueError."""
    _check_beta(beta)
    if lexicon.alphabet.symbols != m.alphabet.symbols:
        raise ValueError("lexicon alphabet does not match the model alphabet")
    p = tuple(prefix)
    _check_indices(p, m.d)
    matches = lexicon.words.starting_with(p)
    logps = _log_chain_probabilities(m, matches, len(p), beta).tolist()
    scored = sorted(zip(matches, logps), key=lambda item: (-item[1], item[0]))
    return [(w, math.exp(logp)) for w, logp in scored]
