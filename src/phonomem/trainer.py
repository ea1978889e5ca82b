"""Fits interaction tensors to a corpus by gradient flow on total word energy.

The loss is the plain sum of word energies over the corpus. Its gradient
with respect to each g entry is minus the corpus pair count at that range,
a constant, so each step adds eta * counts(r) to g(r). The optional
per-range-sum mode then rescales each g(r) to a fixed total mass T = d*d,
which keeps entries comparable to g0 for inspection; entry orderings are
unchanged in both modes. Both the step and the rescale keep the form
g(r) = u*J + v*counts(r), with J the all-ones matrix, so one closed form
for (u, v) trains every range in both modes. A range never rescaled (plain
flow, zero timesteps, or M = 0 below) has

    u = g_init,  v = eta * timesteps

which stays nonnegative because eta > 0, g_init >= 0 and counts >= 0.
With S = sum(counts(r)), the first per-range-sum step and rescale give

    u1 = g_init*T/M,  v1 = eta*T/M,  M = g_init*T + eta*S

Every later step starts from mass T and maps u -> c*u, v -> c*(v + eta)
with c = T/(T + eta*S), so after n steps

    u = c^(n-1)*u1,  v = c^(n-1)*v1 + eta*(c + c^2 + ... + c^(n-1))
                       = c^(n-1)*v1 + (T/S)*(1 - c^(n-1))

where the last form uses eta*c/(1 - c) = T/S. A range with no pairs has
c = 1 and keeps u = u1.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .alphabet import Corpus, _padded, surface_digest
from .errors import CorpusError
from .model import InteractionModel, mean_interaction

NORMALIZE_MODES = ("none", "per-range-sum")


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-flow hyperparameters. Defaults: 10000 timesteps with
    eta = 1e-4, so the default product eta * timesteps is 1 and the trained
    tensors equal the raw pair counts."""

    eta: float = 1e-4
    timesteps: int = 10_000
    g_init: float = 0.0
    normalize: str = "none"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.timesteps < 0:
            raise ValueError("timesteps must be >= 0")
        if not (math.isfinite(self.g_init) and self.g_init >= 0):
            raise ValueError(f"g_init must be finite and >= 0, got {self.g_init}")
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")


@dataclass(frozen=True, eq=False)
class PairCounts:
    """Co-occurrence counts: counts[r-1][s][s'] is how often sound s appears
    r positions before sound s', summed over all corpus words."""

    counts: np.ndarray  # (r_max, d, d) int64

    def total(self, r: int) -> int:
        return int(self.counts[r - 1].sum())


def count_pairs(corpus: Corpus, r_max: int) -> PairCounts:
    """Exact pair counts for every range 1..r_max. The total at range r
    equals sum over words of max(0, N - r).

    The words' index stream (the parse's own, else built once) is padded
    by alphabet._padded, so no pair within r_max crosses a word edge. At range
    r, position i pairs with i + r: one intp bincount of s*(d+1) + s' over
    (d+1)^2 bins, whose d x d block holds the pairs of real sounds. Ranges
    past every word stay zero."""
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    d = corpus.alphabet.d
    stream, _, reach = _padded(corpus.words, d, r_max)
    counts = np.zeros((r_max, d, d), dtype=np.int64)
    for r in range(1, reach + 1):
        pair = np.multiply(stream[:-r], d + 1, dtype=np.intp)
        pair += stream[r:]
        counts[r - 1] = np.bincount(pair, minlength=(d + 1) ** 2).reshape(d + 1, d + 1)[:d, :d]
        del pair  # so one pair array is alive at a time, not two
    return PairCounts(counts)


def _flow_scalars(total: float, target: float, cfg: TrainConfig) -> tuple[float, float]:
    """(u, v) after cfg.timesteps steps on a range whose counts sum to
    `total`, by the closed form in the module docstring; plain flow is its
    never-rescaled case."""
    n, eta = cfg.timesteps, cfg.eta
    mass = cfg.g_init * target + eta * total
    # Refused in both modes, so one bound on g_init holds in each: rescaling
    # divides by the mass, and once steps are taken a plain-flow range's
    # entries sum past float64 with it.
    if not math.isfinite(mass):
        raise ValueError("a range's mass g_init*d*d + eta*pairs overflows float64")
    if cfg.normalize == "none" or n == 0 or mass == 0.0:  # never rescaled
        return cfg.g_init, eta * n
    u, v = cfg.g_init * (target / mass), eta * (target / mass)
    if total == 0.0:  # c == 1
        return u, v + eta * (n - 1)
    # c^(n-1) and 1 - c^(n-1) through log1p and expm1, accurate as c nears 1.
    log_c = -math.log1p(eta * total / target)
    decay = math.exp((n - 1) * log_c)
    return u * decay, v * decay - (target / total) * math.expm1((n - 1) * log_c)


def train(
    corpus: Corpus,
    cfg: TrainConfig = TrainConfig(),
    r_max: int = 3,
    g0: float = 1.0,
) -> InteractionModel:
    """Train a model against the corpus. Pure function: identical inputs give
    a bit-identical model."""
    if not corpus.words:
        raise CorpusError("empty corpus")
    counts = count_pairs(corpus, r_max).counts.astype(np.float64)
    target = float(corpus.alphabet.d ** 2)
    g = np.empty_like(counts)
    for r in range(r_max):
        u, v = _flow_scalars(float(counts[r].sum()), target, cfg)
        g[r] = u + v * counts[r]
    words = corpus._surface
    meta = {
        "train": asdict(cfg),
        "corpus": {
            "source": corpus.source,
            "sha256": surface_digest(words),
            "num_words": len(corpus.words),
            "d": corpus.alphabet.d,
            "words": words,
        },
    }
    return InteractionModel(corpus.alphabet, r_max, g0, g, meta)


def verify_decay(m: InteractionModel) -> bool:
    """True when the mean interaction strength is nonincreasing in range.
    Means equal within rounding (relative 1e-9) count as nonincreasing:
    per-range-sum training gives every range mean exactly 1 in real
    arithmetic, and the float means differ only in their last bits."""
    means = [mean_interaction(m, r) for r in range(1, m.r_max + 1)]
    return all(a >= b or math.isclose(a, b, rel_tol=1e-9) for a, b in zip(means, means[1:]))
