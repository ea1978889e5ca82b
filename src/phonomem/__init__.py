"""Phonotactic memory engine.

Learns local sound-interaction matrices from a word corpus by energy
minimization, then reproduces trained words, generates low-energy
pseudowords and gibberish, and ranks, segments, and predicts sound
sequences.
"""

from .alphabet import (
    Alphabet,
    Corpus,
    Word,
    build_inventory,
    detokenize,
    load_corpus,
    load_embedded,
    normalize,
    parse_corpus,
    tokenize,
)
from .errors import (
    CorpusError,
    ModelFormatError,
    PhonomemError,
    SectorExhaustedError,
    UnknownSymbolError,
)
from .generator import (
    BranchNode,
    BranchSpace,
    GibberishPolicy,
    PenaltySet,
    detect_steady_state,
    enumerate_branch_space,
    gibberish,
    grow_greedy,
    next_ranked,
    predict_completions,
    segment,
)
from .model import (
    InteractionModel,
    NextSoundDistribution,
    ablate,
    boundary_energy,
    energy_profile,
    eval_count,
    log_chain_probability,
    mean_interaction,
    next_sound_distribution,
    next_sound_energies,
    ranked_next_sounds,
    reset_eval_count,
    sequence_probability,
    word_energy,
)
from .storage import load_model, save_model
from .trainer import PairCounts, TrainConfig, count_pairs, train, verify_decay

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BranchNode",
    "BranchSpace",
    "Corpus",
    "CorpusError",
    "GibberishPolicy",
    "InteractionModel",
    "ModelFormatError",
    "NextSoundDistribution",
    "PairCounts",
    "PenaltySet",
    "PhonomemError",
    "SectorExhaustedError",
    "TrainConfig",
    "UnknownSymbolError",
    "Word",
    "ablate",
    "boundary_energy",
    "build_inventory",
    "count_pairs",
    "detect_steady_state",
    "detokenize",
    "energy_profile",
    "enumerate_branch_space",
    "eval_count",
    "gibberish",
    "grow_greedy",
    "load_corpus",
    "load_embedded",
    "load_model",
    "log_chain_probability",
    "mean_interaction",
    "next_ranked",
    "next_sound_distribution",
    "next_sound_energies",
    "normalize",
    "parse_corpus",
    "predict_completions",
    "ranked_next_sounds",
    "reset_eval_count",
    "save_model",
    "segment",
    "sequence_probability",
    "tokenize",
    "train",
    "verify_decay",
    "word_energy",
]
