"""Seeded inputs: synthetic word lists, query schedules and CLI call lists.

Everything here is derived from the workload seed with string-seeded
random.Random instances (sha512-based, so independent of PYTHONHASHSEED).
The package only ever sees the generated strings.
"""

from __future__ import annotations

import random

SYNTH_D = 120
SYNTH_FIRST = 0x100  # symbols U+0100 .. U+0177, one code point each
SYNTH_LEN = (3, 14)


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{seed}:{purpose}")


def synth_words(seed: int, n_words: int) -> list[str]:
    """n_words random words over SYNTH_D symbols, uniform lengths 3..14."""
    rng = rng_for(seed, "corpus")
    symbols = [chr(SYNTH_FIRST + i) for i in range(SYNTH_D)]
    lo, hi = SYNTH_LEN
    return ["".join(rng.choices(symbols, k=rng.randint(lo, hi))) for _ in range(n_words)]


def corpus_lines(words: list[str], per_line: int = 10) -> list[str]:
    return [" ".join(words[i : i + per_line]) for i in range(0, len(words), per_line)]


def sample_distinct(seed: int, words: list[str], k: int) -> list[str]:
    distinct = list(dict.fromkeys(words))
    return rng_for(seed, "lexicon").sample(distinct, min(k, len(distinct)))


class Lexicon:
    """Surface words with their symbol sequences under one alphabet."""

    def __init__(self, symbols: tuple[str, ...], words: list[tuple[int, ...]]) -> None:
        self.symbols = symbols
        self.words = words

    def surface(self, w) -> str:
        return "".join(self.symbols[i] for i in w)


# Query kinds in the fixed order of one cycle. Every cycle runs each kind of
# its workload once, so the mix proportions are identical on every run.
SYNTH_KINDS = ("energy", "segment", "find", "greedy", "gibberish", "predict", "branch", "branch_dot")
EMBEDDED_KINDS = SYNTH_KINDS + ("recall",)


def query_args(rng: random.Random, kind: str, lex: Lexicon) -> dict:
    words = lex.words
    w = rng.choice(words)
    if kind == "energy":
        return {"word": lex.surface(w)}
    if kind == "segment":
        return {"word": lex.surface(w) + lex.surface(rng.choice(words))}
    if kind == "find":
        return {"word": lex.surface(w)}
    if kind == "greedy":
        return {"prefix": lex.surface(w[: rng.randint(1, min(3, len(w)))])}
    if kind == "gibberish":
        return {"prefix": lex.surface(w[: rng.randint(1, min(3, len(w)))]),
                "seed": rng.randrange(2**31)}
    if kind in ("predict", "branch"):
        return {"prefix": lex.surface(w[:1])}
    if kind == "branch_dot":
        return {"prefix": lex.surface(w[:2])}
    if kind == "recall":
        return {}
    raise ValueError(f"unknown query kind {kind!r}")


def cli_calls(rng: random.Random, lex: Lexicon, corpus_arg: str, model: str,
              normalized: bool, branch_depths: tuple[int, int]) -> list[tuple[str, list[str]]]:
    """One rotation of CLI invocations: (subcommand, argv). The first call
    trains the model file the others read."""

    def word():
        return lex.surface(rng.choice(lex.words))

    def prefix(k):
        w = rng.choice(lex.words)
        return lex.surface(w[:k])

    right, down = branch_depths
    depth = ["--right", str(right), "--down", str(down)]
    calls = [("train", ["train", corpus_arg, model])]
    if normalized:
        calls.append(("train", ["train", corpus_arg, model + ".norm.json",
                                "--normalize", "per-range-sum"]))
    calls += [
        ("energy", ["energy", model, word(), "--profile"]),
        ("generate", ["generate", model, prefix(2), "--steps", "30",
                      "--seed", str(rng.randrange(2**31))]),
        ("generate", ["generate", model, prefix(2), "--stop-tau", "0", "--p-next", "0"]),
        ("segment", ["segment", model, word() + word(), "--threshold", "0"]),
        ("predict", ["predict", model, prefix(1), "--limit", "10"]),
        ("predict", ["predict", model, prefix(2), "--limit", "10"]),
        ("branch", ["branch", model, prefix(1), *depth, "--format", "json"]),
        ("branch", ["branch", model, prefix(2), *depth, "--format", "dot"]),
    ]
    return calls
