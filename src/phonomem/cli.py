"""Command-line surface.

Subcommands: train, inspect, energy, generate, branch, segment, predict,
explore. Exit codes: 0 success, 1 usage error, 2 data error. Corpus
arguments accept a file path or '@latin' / '@turkish' for the embedded
word lists.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from collections.abc import Mapping
from datetime import datetime, timezone

import numpy as np

from .alphabet import Corpus, detokenize, load_corpus, load_embedded, tokenize
from .errors import ModelFormatError, PhonomemError
from .export import branch_to_dot, branch_to_json
from .generator import (
    GibberishPolicy,
    enumerate_branch_space,
    gibberish,
    predict_completions,
    segment,
)
from .model import energy_profile, mean_interaction, ranked_next_sounds, word_energy
from .storage import load_model, save_model
from .trainer import NORMALIZE_MODES, TrainConfig, train, verify_decay


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; 2 is reserved for data errors.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _corpus_arg(spec: str) -> Corpus:
    if spec.startswith("@"):
        return load_embedded(spec[1:])
    return load_corpus(spec)


def _lexicon(model, spec) -> Corpus:
    """The words of corpus `spec` (default: the model's training words),
    tokenized under the model's alphabet; an unknown sound, or training words
    that are not a list of strings, is a data error."""
    if spec:
        words = _corpus_arg(spec).surface_words()
    else:
        corpus = model.meta.get("corpus", {})
        if not isinstance(corpus, Mapping):
            raise ModelFormatError("malformed model file: meta.corpus is not an object")
        words = corpus.get("words", ())
        # meta is a frozen copy, so a JSON list reads back as a tuple.
        if not isinstance(words, tuple) or not all(isinstance(w, str) for w in words):
            raise ModelFormatError("malformed model file: meta.corpus.words is not "
                                   "a list of strings")
    return Corpus(model.alphabet, tuple(tokenize(w, model.alphabet) for w in words))


def _fmt(x: float) -> str:
    """A printed number; an overflowed or undefined one is refused."""
    if not math.isfinite(x):
        raise ValueError(f"a result is not finite ({x}): inputs too large for float64")
    return f"{x:.12g}"


def cmd_train(args) -> int:
    corpus = _corpus_arg(args.corpus)
    cfg = TrainConfig(
        eta=args.eta,
        timesteps=args.steps,
        g_init=args.g_init,
        normalize=args.normalize,
    )
    model = train(corpus, cfg, r_max=args.r_max, g0=args.g0)
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    model = dataclasses.replace(model, meta={**model.meta, "created": created})
    means = [_fmt(mean_interaction(model, r)) for r in range(1, model.r_max + 1)]
    save_model(model, args.out)
    print(f"d={model.d} r_max={model.r_max} words={len(corpus.words)} source={corpus.source}")
    for r, mean in enumerate(means, 1):
        print(f"mean_g({r})={mean}")
    print(f"decay={'ok' if verify_decay(model) else 'violated'}")
    print(f"wrote {args.out}")
    return 0


def cmd_inspect(args) -> int:
    model = load_model(args.model)
    payload = {
        "d": model.d,
        "r_max": model.r_max,
        "g0": model.g0,
        "alphabet": list(model.alphabet.symbols),
        "mean_interaction": {
            str(r): mean_interaction(model, r) for r in range(1, model.r_max + 1)
        },
        "decay": verify_decay(model),
    }
    if args.reciprocal:
        # The model's g0 - g table: a term is 0 (stored as +0.0) exactly when g == g0.
        tensors = [[["div0" if t == 0 else 1.0 / t for t in row] for row in m]
                   for m in model._term_lists]
        payload["tensors"] = {"kind": "reciprocal", "g": tensors}
    else:
        payload["tensors"] = {"kind": "raw", "g": model.g.tolist()}
    print(json.dumps(payload, ensure_ascii=False, indent=1, allow_nan=False))
    return 0


def cmd_energy(args) -> int:
    model = load_model(args.model)
    word = tokenize(args.word, model.alphabet)
    lines = [f"energy={_fmt(word_energy(model, word))}"]
    if args.profile:
        lines.append("profile: " + " ".join(map(_fmt, energy_profile(model, word))))
    print(*lines, sep="\n")
    return 0


def _nonnegative(flag: str, value) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{flag} must be >= 0")


def cmd_generate(args) -> int:
    _nonnegative("--steps", args.steps)
    _nonnegative("--max-steps", args.max_steps)
    model = load_model(args.model)
    prefix = tokenize(args.prefix, model.alphabet)
    steps = args.steps if args.stop_tau is None else args.max_steps
    tau = math.inf if args.stop_tau is None else args.stop_tau
    policy = GibberishPolicy(len(prefix) + steps, args.p_next, args.seed, stop_tau=tau)
    word, gaps = gibberish(model, prefix, policy)
    energy, profile = _fmt(word_energy(model, word)), " ".join(map(_fmt, gaps))
    print(detokenize(word, model.alphabet), f"energy={energy}", f"profile: {profile}", sep="\n")
    return 0


def cmd_branch(args) -> int:
    model = load_model(args.model)
    prefix = tokenize(args.prefix, model.alphabet)
    space = enumerate_branch_space(model, prefix, args.right, args.down)
    lexicon = _lexicon(model, args.corpus)
    if not all(np.isfinite(column.energy).all() for column in space.columns):
        raise ValueError("branch energies are not finite: inputs too large for float64")
    if args.format == "dot":
        text = branch_to_dot(space, model.alphabet, lexicon.words)
    else:
        payload = branch_to_json(space, model.alphabet, lexicon.words)
        text = json.dumps(payload, ensure_ascii=False, indent=1) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


def cmd_segment(args) -> int:
    model = load_model(args.model)
    word = tokenize(args.word, model.alphabet)
    parts = segment(model, word, args.threshold)
    rows = [(detokenize(p, model.alphabet), _fmt(word_energy(model, p))) for p in parts]
    sys.stdout.write("".join(f"{text}\t{energy}\n" for text, energy in rows))
    return 0


def cmd_predict(args) -> int:
    _nonnegative("--limit", args.limit)
    model = load_model(args.model)
    prefix = tokenize(args.prefix, model.alphabet)
    lexicon = _lexicon(model, args.lexicon)
    ranked = predict_completions(model, prefix, lexicon, beta=args.beta)[: args.limit]
    sys.stdout.write("".join(f"{detokenize(w, model.alphabet)}\t{_fmt(p)}\n" for w, p in ranked))
    return 0


def cmd_explore(args) -> int:
    model = load_model(args.model)
    word = tokenize(args.prefix, model.alphabet)
    while True:
        energy = word_energy(model, word)
        print(f"word: {detokenize(word, model.alphabet) or '(empty)'}  energy={_fmt(energy)}")
        energies, order = ranked_next_sounds(model, word, base=energy)
        for rank, s in enumerate(order):
            print(f"  {rank}) {model.alphabet.symbols[s]}  {_fmt(energies[s])}")
        try:
            line = input("rank> ").strip()
        except EOFError:
            break
        if line in ("q", "quit"):
            break
        try:
            choice = int(line or 0)
        except ValueError:
            choice = -1
        if not 0 <= choice < model.d:
            print(f"enter a rank 0..{model.d - 1}, blank for 0, or q to quit")
            continue
        word = word + (order[choice],)
    print(detokenize(word, model.alphabet))
    return 0


# Built once per process: parse_args does not change the parser, and
# _Parser.error reads sys.stderr when it is called.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="phonomem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a word-list corpus")
    p.add_argument("corpus", help="corpus path, or @latin / @turkish")
    p.add_argument("out", help="output model file (JSON)")
    p.add_argument("--r-max", type=int, default=3, help="max interaction range (default 3)")
    p.add_argument("--g0", type=float, default=1.0, help="energy baseline (default 1)")
    p.add_argument("--eta", type=float, default=1e-4, help="learning rate per step (default 1e-4)")
    p.add_argument("--steps", type=int, default=10_000, help="flow timesteps (default 10000)")
    p.add_argument("--g-init", type=float, default=0.0, help="initial tensor fill (default 0)")
    p.add_argument("--normalize", choices=NORMALIZE_MODES, default="none",
                   help="per-step rescaling mode (default none)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("inspect", help="print model summary and tensors")
    p.add_argument("model")
    p.add_argument("--reciprocal", action="store_true",
                   help="export 1/(g0 - g) instead of raw g; division by zero "
                        "becomes the sentinel 'div0'")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("energy", help="total energy of a word")
    p.add_argument("model")
    p.add_argument("word")
    p.add_argument("--profile", action="store_true", help="also print per-gap energies")
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("generate", help="grow a word from a prefix")
    p.add_argument("model")
    p.add_argument("prefix")
    p.add_argument("--steps", type=int, default=10, help="sounds to append (default 10)")
    p.add_argument("--stop-tau", type=float, default=None,
                   help="stop once the next sound would add more than this energy")
    p.add_argument("--max-steps", type=int, default=100,
                   help="hard cap when --stop-tau is used (default 100)")
    p.add_argument("--p-next", type=float, default=0.2,
                   help="probability of taking the 2nd-ranked sound (default 0.2; 0 = greedy)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("branch", help="export the branching space from a prefix")
    p.add_argument("model")
    p.add_argument("prefix")
    p.add_argument("--right", type=int, default=6, help="growth depth (default 6)")
    p.add_argument("--down", type=int, default=6, help="alternatives kept per length (default 6)")
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--out", default="-", help="output file, or - for stdout (default -)")
    p.add_argument("--corpus", default=None,
                   help="word list used to flag input words (default: the model's training words)")
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("segment", help="cut a word at high-energy gaps")
    p.add_argument("model")
    p.add_argument("word")
    p.add_argument("--threshold", type=float, required=True,
                   help="cut every gap whose local energy exceeds this")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("predict", help="rank lexicon completions of a prefix")
    p.add_argument("model")
    p.add_argument("prefix")
    p.add_argument("--lexicon", default=None,
                   help="word list to complete against (default: the model's training words)")
    p.add_argument("--beta", type=float, default=1.0, help="inverse temperature (default 1)")
    p.add_argument("--limit", type=int, default=None, help="print at most this many completions")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explore", help="interactive ranked next-sound stepper")
    p.add_argument("model")
    p.add_argument("prefix", nargs="?", default="")
    p.set_defaults(func=cmd_explore)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every printed number is checked for overflow, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (PhonomemError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # A library argument check (negative threshold, bad beta, ...).
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
