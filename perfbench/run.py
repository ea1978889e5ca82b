#!/usr/bin/env python3
"""phonomem benchmark: one workload per run, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory and the CLI is run from there as a subprocess. Workloads,
metric names and units are declared in BENCHMARK.json at the root.

The run generates its inputs from --seed: a fixed set of queries (every
query kind in turn, in a fixed order) and a fixed list of CLI invocations.
It sets up (several times, for a median), then replays that work in rounds
until --seconds have passed; each round first reloads the model from disk,
so nothing a model object might cache carries over between rounds. The next
operation starts only after the previous one returned, and CLI
subprocesses run one at a time.

Every time is scaled to a nominal machine speed: other tenants of a shared
host slow this process by up to ~1.7x, in bursts, so each operation is
scaled by a reference kernel timed just before and after it (see
reference.py). Percentiles and throughput pool every query (or CLI call)
of every round; training, load and set-up times are medians over passes.
The record line also gives every end-to-end time unscaled, as measured.

Every output is checked; an exception or a failed check counts the
operation as failed, and the run exits 1 after naming the check. The last
stdout line is the result; the line before it is a record with the exact
work counts of one round, an output digest, the tail percentiles used and
the environment. With --trace 1 the rounds run traced and the result holds
the per-layer metrics (median self time per call) instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import inputs
import reference
from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per workload: inputs, set-up repetitions, and what one round holds. A
# query cycle runs every query kind once; embedded cycles alternate between
# the two lists, and so do its CLI rotations. tail_rounds is how many
# rounds every run fits (measured); it sets the tail percentiles and the
# number of CLI rotations in a round.
WORKLOADS = {
    # Write path: parse -> train -> save -> load in both modes dominates;
    # set-up is the import alone. 20k words rather than the ROADMAP's 50k:
    # a 50k pass lasts ~13 s, so a run could time only one or two passes
    # and the best of them would still carry whatever burst it ran in.
    "ingest-synth": {
        "corpus_words": 20_000, "lexicon_words": 2000, "setup_reps": 0,
        "ingest_per_round": 2, "query_cycles": 40, "branch_dot": (6, 4),
        "tail_rounds": 1,
    },
    # Query path at d=120: per-query work scales with d and lexicon size.
    "query-synth": {
        "corpus_words": 4000, "lexicon_words": 2000, "setup_reps": 4,
        "ingest_per_round": 0, "query_cycles": 40, "branch_dot": (6, 4),
        "tail_rounds": 2,
    },
    # The shipped lists at d=18/22, where call overhead dominates, plus the
    # criterion-3 recall walk and the CLI as users run it.
    "embedded": {
        "corpora": ("latin", "turkish"), "setup_reps": 9,
        "ingest_per_round": 0, "query_cycles": 24, "branch_dot": (6, 6),
        "tail_rounds": 2,
    },
}

GROW_STEPS = 30
P_NEXT = 0.2
BRANCH = (6, 4)  # right, down of the `branch` query
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# CLI calls in tail_rounds rounds: enough for the 75th percentile to have
# ten calls beyond it. The subcommands' costs fall into groups with gaps
# between them, and a median over all calls sits in a gap and jumps.
CLI_TAIL_CALLS = 40
IMPORT_PROBES = 5
OVERHEAD_REPLAYS = 3
LOAD_REPEATS = 10  # loads per ingest pass; load is short next to parse and train
CLI_TIMEOUT_S = 120
TIME_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
NOMINAL, RAW = 0, 1  # the two clocks of a (nominal, raw) time pair


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or declaration)."""


def import_package():
    if not (SRC / "phonomem" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}/phonomem")
    sys.path.insert(0, str(SRC))
    import phonomem
    import phonomem.export  # noqa: F401  (reached as phonomem.export below)

    if Path(phonomem.__file__).resolve().parent != (SRC / "phonomem").resolve():
        raise BenchError(f"imported phonomem from {phonomem.__file__}, not from {SRC}")
    return phonomem


def load_declaration() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def tail_percentile(n: int) -> float:
    """The highest percentile on TAIL_LADDER with at least ten of n samples
    beyond it."""
    return next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 100.0)


def add(*times):
    """Sum of (nominal, raw) time pairs, clock by clock."""
    return tuple(map(sum, zip(*times)))


def med(times):
    """Median of (nominal, raw) time pairs, clock by clock."""
    return tuple(map(median, zip(*times)))


def share(items: list, part: int, parts: int) -> list:
    """The part-th of parts contiguous, near-equal slices of items."""
    return items[len(items) * part // parts : len(items) * (part + 1) // parts]


def beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank percentile p."""
    return n - max(1, math.ceil(p / 100 * n))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Failures:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first) < 10:
                self.first.append(what)


class Ctx:
    """One trained model with its query lexicon."""

    def __init__(self, P, name, model, lexicon_words, recall_words, recall_down):
        self.name = name
        self.model = model
        self.alphabet = model.alphabet
        self.lex = inputs.Lexicon(model.alphabet.symbols, lexicon_words)
        self.lexicon = P.Corpus(model.alphabet, tuple(lexicon_words), source="lexicon")
        self.recall_words = recall_words
        self.recall_down = recall_down
        self.find_down = (max(len(w) for w in lexicon_words) - 1) * (model.d - 1) + 1


# ---------------------------------------------------------------- queries

def run_query(P, tr, ctx, kind, a, depths):
    """One query: only calls into the package, each in its own span."""
    m, al = ctx.model, ctx.alphabet
    call = tr.call
    if kind == "energy":
        w = call("alphabet.tokenize", P.tokenize, a["word"], al)
        return (w,
                call("model.word_energy", P.word_energy, m, w),
                call("model.energy_profile", P.energy_profile, m, w),
                call("model.next_sound_distribution", P.next_sound_distribution, m, w))
    if kind == "segment":
        w = call("alphabet.tokenize", P.tokenize, a["word"], al)
        parts = call("generator.segment", P.segment, m, w, 0.0)
        return w, parts
    if kind == "find":
        w = call("alphabet.tokenize", P.tokenize, a["word"], al)
        space = call("generator.enumerate_branch_space", P.enumerate_branch_space,
                     m, w[:1], max(1, len(w) - 1), ctx.find_down)
        return w, call("generator.find", space.find, w)
    if kind in ("greedy", "gibberish"):
        p = call("alphabet.tokenize", P.tokenize, a["prefix"], al)
        if kind == "greedy":
            w = call("generator.grow_greedy", P.grow_greedy, m, p, GROW_STEPS)
        else:
            policy = P.GibberishPolicy(len(p) + GROW_STEPS, P_NEXT, a["seed"])
            w, _ = call("generator.gibberish", P.gibberish, m, p, policy)
        return p, w, call("alphabet.detokenize", P.detokenize, w, al)
    if kind == "predict":
        p = call("alphabet.tokenize", P.tokenize, a["prefix"], al)
        ranked = call("generator.predict_completions", P.predict_completions, m, p, ctx.lexicon)
        shown = call("alphabet.detokenize", lambda: [(P.detokenize(w, al), q) for w, q in ranked])
        return p, ranked, shown
    if kind in ("branch", "branch_dot"):
        right, down = depths[kind]
        p = call("alphabet.tokenize", P.tokenize, a["prefix"], al)
        space = call("generator.enumerate_branch_space", P.enumerate_branch_space, m, p, right, down)
        columns = call("generator.branch_materialize", lambda: space.columns)
        if kind == "branch":
            payload = call("export.branch_to_json", P.export.branch_to_json, space, al, ctx.lexicon.words)
            text = json.dumps(payload, ensure_ascii=False, indent=1) + "\n"
        else:
            text = call("export.branch_to_dot", P.export.branch_to_dot, space, al, ctx.lexicon.words)
        return sum(len(c) for c in columns), text.encode("utf-8")
    if kind == "recall":
        found = 0
        for w in ctx.recall_words:
            space = call("generator.enumerate_branch_space", P.enumerate_branch_space,
                         m, w[:1], max(1, len(w) - 1), ctx.recall_down)
            found += call("generator.find", space.find, w) is not None
        return found
    raise ValueError(kind)


def check_query(P, ctx, kind, a, res, first_round) -> str | None:
    """Name of the failed check, or None."""
    m = ctx.model
    if kind == "energy":
        w, e, prof, dist = res
        probs = dist.probabilities
        if not (math.isfinite(e) and len(prof) == max(0, len(w) - 1)
                and abs(float(probs.sum()) - 1.0) < 1e-9):
            return "energy: non-finite energy, profile length or distribution sum"
    elif kind == "segment":
        w, parts = res
        if tuple(s for part in parts for s in part) != w:
            return "segment: parts do not concatenate to the word"
    elif kind == "find":
        w, node = res
        if node is None or node.word != w:
            return "find: trained word not found in its branch space"
    elif kind in ("greedy", "gibberish"):
        p, w, _ = res
        if len(w) != len(p) + GROW_STEPS or w[: len(p)] != p:
            return f"{kind}: wrong length or prefix"
        if kind == "gibberish" and first_round:
            plain, _ = P.gibberish(m, p, P.GibberishPolicy(len(p) + GROW_STEPS, 0.0, a["seed"]))
            if plain != P.grow_greedy(m, p, GROW_STEPS):
                return "gibberish with p_next=0 differs from grow_greedy"
    elif kind == "predict":
        p, ranked, _ = res
        expected = sorted(w for w in ctx.lexicon.words if w[: len(p)] == p)
        probs = [q for _, q in ranked]
        if sorted(w for w, _ in ranked) != expected:
            return "predict: result is not every lexicon word with the prefix"
        if any(not 0.0 <= q <= 1.0 for q in probs) or any(x < y for x, y in zip(probs, probs[1:])):
            return "predict: probabilities outside [0, 1] or increasing"
    elif kind in ("branch", "branch_dot"):
        nodes, text = res
        if nodes < 1 or not text:
            return f"{kind}: empty branch space or export"
    elif kind == "recall":
        if res != len(ctx.recall_words):
            return f"recall: {len(ctx.recall_words) - res} trained words not found"
    return None


def digest_item(kind, res):
    if kind == "energy":
        w, e, prof, dist = res
        return [e, prof, [float(x) for x in dist.probabilities]]
    if kind == "segment":
        return [list(part) for part in res[1]]
    if kind == "find":
        node = res[1]
        return [node.energy, node.depth_down]
    if kind in ("greedy", "gibberish", "predict"):
        return res[2]
    if kind in ("branch", "branch_dot"):
        return [res[0], hashlib.sha256(res[1]).hexdigest()]
    return res


def query_counts(kind, res, ctx) -> dict[str, int]:
    if kind == "predict":
        return {"generator.words_scored": len(res[1]),
                "generator.words_scanned": len(ctx.lexicon.words)}
    if kind in ("branch", "branch_dot"):
        return {"generator.branch_nodes": res[0], "export.bytes": len(res[1])}
    return {}


# ---------------------------------------------------------------- the run

class Run:
    def __init__(self, P, name, seed, seconds, traced, work_dir):
        self.P = P
        self.name = name
        self.cfg = WORKLOADS[name]
        self.embedded = "corpora" in self.cfg
        self.kinds = inputs.EMBEDDED_KINDS if self.embedded else inputs.SYNTH_KINDS
        self.depths = {"branch": BRANCH, "branch_dot": self.cfg["branch_dot"]}
        self.seed = seed
        self.seconds = seconds
        self.tr = Tracer() if traced else NullTracer()
        self.work = work_dir
        self.fail = Failures()
        # Every time is a (nominal, raw) pair: seconds scaled to nominal
        # machine speed, and wall seconds as measured.
        self.setup_reps: list[tuple] = []
        self.passes: dict[str, list[tuple]] = {"train": [], "train_normalized": [], "load": []}
        self.query_s: list[tuple] = []  # every query of every round
        self.cli_s: list[tuple[str, tuple]] = []  # (subcommand, time), every call
        self.counts: dict[str, float] = {}
        self.round_counts: dict[str, int] = {}  # work counts of the first round
        self.digest = hashlib.sha256()
        self.seen_tails: set = set()
        self.tail_steps = [0, 0]  # reused, total
        self.query_set: list[tuple[int, str, dict]] = []
        self.kernel = reference.PYTHON
        self.reading = self.kernel.reading()
        self.readings: list[float] = []  # of the PYTHON kernel
        self.last_scale = 1.0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUTF8="1",
                        PYTHONIOENCODING="utf-8")
        self.env.pop("PYTHONSTARTUP", None)

    # -- inputs

    def make_sources(self):
        """[(source name, corpus lines, model path)]; also writes the
        synthetic lexicon file the CLI trains on."""
        if self.embedded:
            from importlib import resources

            sources = []
            for name in self.cfg["corpora"]:
                text = resources.files("phonomem").joinpath(f"data/{name}.txt").read_text("utf-8")
                sources.append((f"embedded:{name}", text.split("\n"), self.work / f"{name}.json"))
            self.cli_corpora = [f"@{name}" for name in self.cfg["corpora"]]
            return sources
        words = inputs.synth_words(self.seed, self.cfg["corpus_words"])
        self.lexicon_surface = inputs.sample_distinct(self.seed, words, self.cfg["lexicon_words"])
        lex_path = self.work / "lexicon.txt"
        lex_path.write_text("\n".join(self.lexicon_surface) + "\n", encoding="utf-8")
        self.cli_corpora = [str(lex_path)]
        return [("synthetic", inputs.corpus_lines(words), self.work / "synth.json")]

    def make_ctxs(self, corpora, models):
        ctxs = []
        for corpus, model in zip(corpora, models):
            if self.embedded:
                lex_words = recall_words = list(corpus.words)
            else:
                index = {s: i for i, s in enumerate(model.alphabet.symbols)}
                lex_words = [tuple(index[c] for c in s) for s in self.lexicon_surface]
                recall_words = []
            ctxs.append(Ctx(self.P, corpus.source, model, lex_words,
                            recall_words, len(corpus.words)))
        return ctxs

    def make_query_set(self):
        """The query set every round replays."""
        qrng = inputs.rng_for(self.seed, "queries")
        for cycle in range(self.cfg["query_cycles"]):
            i = cycle % len(self.ctxs)
            for kind in self.kinds:
                self.query_set.append((i, kind, inputs.query_args(qrng, kind, self.ctxs[i].lex)))
        self.crng = inputs.rng_for(self.seed, "cli")

    def next_cli_list(self):
        """CLI calls for one round. Unlike queries, their arguments are
        fresh every round: a run makes few calls, and replaying the same
        few would let one seed's words set the figures. A round makes as
        many rotations as CLI_TAIL_CALLS needs."""
        calls, rotation = [], 0
        while len(calls) * self.cfg["tail_rounds"] < CLI_TAIL_CALLS:
            i = rotation % len(self.ctxs)
            rotation += 1
            calls += inputs.cli_calls(
                self.crng, self.ctxs[i].lex, self.cli_corpora[i], str(self.work / f"cli-{i}.json"),
                normalized=self.embedded, branch_depths=self.cfg["branch_dot"])
        return calls

    # -- operations

    def op(self, span, fn, kernel=reference.PYTHON):
        """Run one timed operation between two readings of the reference
        kernel; returns (ok, (seconds at nominal machine speed, wall
        seconds), result)."""
        tr = self.tr
        # Consecutive operations on one kernel share the reading between them.
        before = self.reading if kernel is self.kernel else kernel.reading()
        tr.begin(span)
        t0 = time.perf_counter()
        try:
            res = fn()
            ok = True
        except Exception as exc:  # an operation that raises counts as failed
            res, ok = f"{type(exc).__name__}: {exc}", False
        t1 = time.perf_counter()
        after = self.reading = kernel.reading()
        self.kernel = kernel
        if kernel is reference.PYTHON:
            self.readings.append(after)
        scale = self.last_scale = 2 * kernel.nominal_s / (before + after)
        tr.end(t1, scale)
        return ok, ((t1 - t0) * scale, t1 - t0), res

    def ingest_call(self, op, layer, fn, kernel=reference.PYTHON):
        ok, t, res = self.op(op, lambda: self.tr.call(layer, fn), kernel)
        self.fail.op(ok, f"{layer}: {res}" if not ok else "")
        if not ok:
            raise BenchError(f"ingest failed: {layer}: {res}")
        return t, res

    def ingest(self, sources, mode, train_kernel=reference.PYTHON):
        """parse -> train -> save for every source, each call its own
        operation scaled by the kernel for its kind of work. Returns
        (time, [(corpus, model)])."""
        P = self.P
        cfg = P.TrainConfig(normalize=mode)
        layer = "trainer.train" if mode == "none" else "trainer.train_normalized"
        suffix = "" if mode == "none" else ".norm"
        total, out = (0.0, 0.0), []
        for source, lines, path in sources:
            t_parse, corpus = self.ingest_call(
                "ingest.parse", "alphabet.parse_corpus", lambda: P.parse_corpus(lines, source))
            t_train, model = self.ingest_call(
                f"ingest.{layer.split('.')[1]}", layer, lambda: P.train(corpus, cfg), train_kernel)
            t_save, _ = self.ingest_call(
                "ingest.save", "storage.save_model",
                lambda: P.save_model(model, path.with_suffix(suffix + ".json")))
            total = add(total, t_parse, t_train, t_save)
            out.append((corpus, model))
        return total, out

    def load(self, sources):
        P, tr = self.P, self.tr
        ok, t, res = self.op("ingest.load", lambda: [
            tr.call("storage.load_model", P.load_model, path) for _, _, path in sources])
        self.fail.op(ok, f"load: {res}" if not ok else "")
        if not ok:
            raise BenchError(f"load failed: {res}")
        self.passes["load"].append(t)
        return t, res

    def check_ingest(self, sources, trained, loaded, first):
        """Bit-exact reload and exact pair totals; sets the ingest counts."""
        P = self.P
        problem = None
        pairs = 0
        for (source, _, path), (corpus, model), back in zip(sources, trained, loaded):
            if back.g.dtype != model.g.dtype or back.g.tobytes() != model.g.tobytes():
                problem = f"{source}: reloaded g is not bit-identical"
            ok, _, pc = self.op("check.count_pairs",
                                lambda: self.tr.call("trainer.count_pairs", P.count_pairs,
                                                     corpus, model.r_max))
            for r in range(1, model.r_max + 1):
                want = sum(max(0, len(w) - r) for w in corpus.words)
                if not ok or pc.total(r) != want:
                    problem = f"{source}: count_pairs total at range {r} is not sum max(0, N-r)"
                pairs += want
            if first:
                self.digest.update(hashlib.sha256(path.read_bytes()).digest())
        self.fail.op(problem is None, problem or "")
        if first:
            self.counts["alphabet.symbols"] = sum(c.alphabet.d for c, _ in trained)
            self.counts["trainer.pairs"] = pairs
            self.counts["storage.model_bytes"] = sum(p.stat().st_size for _, _, p in sources)

    def ingest_cycle(self, first):
        """Default pass, reloads and checks, then the normalized pass; the
        default corpus is dropped before the second parse. Returns the
        time spent in the package, query contexts included."""
        t_train, trained = self.ingest(self.sources, "none")
        loads = [self.load(self.sources) for _ in range(LOAD_REPEATS)]
        loaded = loads[-1][1]
        self.check_ingest(self.sources, trained, loaded, first)
        ok, t_ctx, ctxs = self.op("setup.contexts",
                                  lambda: self.make_ctxs([c for c, _ in trained], loaded))
        if not ok:
            raise BenchError(f"query contexts failed: {ctxs}")
        self.ctxs = ctxs
        # The normalized trainer sweeps every tensor 10k times; tensors
        # larger than the caches run at memory speed, so that pass is scaled
        # by the NUMPY kernel.
        tensor_bytes = max(m.g.nbytes for _, m in trained)
        kernel = reference.NUMPY if tensor_bytes >= reference.LARGE_TENSOR_BYTES else reference.PYTHON
        del trained
        t_norm, _ = self.ingest(self.sources, "per-range-sum", kernel)
        self.passes["train"].append(t_train)
        self.passes["train_normalized"].append(t_norm)
        return add(t_train, med(t for t, _ in loads), t_ctx, t_norm)

    def reload(self):
        """Fresh model objects for a round, from the files set-up wrote."""
        _, loaded = self.load(self.sources)
        self.ctxs = [Ctx(self.P, c.name, m, c.lex.words, c.recall_words, c.recall_down)
                     for c, m in zip(self.ctxs, loaded)]

    def one_query(self, ctx, kind, args, first, record=True):
        """Returns (time, work counts)."""
        e0 = self.P.eval_count()
        ok, t, res = self.op(f"query.{kind}",
                             lambda: run_query(self.P, self.tr, ctx, kind, args, self.depths))
        evals = self.P.eval_count() - e0
        counts = dict(query_counts(kind, res, ctx) if ok else {}, **{"model.candidate_evals": evals})
        if not record:
            return t, counts
        problem = check_query(self.P, ctx, kind, args, res, first) if ok else f"{kind}: {res}"
        self.fail.op(problem is None, problem or "")
        if first:
            for k, v in counts.items():
                self.round_counts[k] = self.round_counts.get(k, 0) + v
            if ok:
                self.digest.update(json.dumps([kind, digest_item(kind, res)],
                                              ensure_ascii=False).encode("utf-8"))
                if kind in ("greedy", "gibberish"):
                    self.note_tails(ctx, res[0], res[1])
        return t, counts

    def note_tails(self, ctx, prefix, word):
        r = ctx.model.r_max
        for t in range(len(prefix), len(word)):
            key = (ctx.name, word[max(0, t - r):t])
            self.tail_steps[0] += key in self.seen_tails
            self.tail_steps[1] += 1
            self.seen_tails.add(key)

    def cli_call(self, sub, argv, first):
        ok, t, proc = self.op(f"cli.{sub}", lambda: subprocess.run(
            [sys.executable, "-m", "phonomem.cli", *argv], capture_output=True,
            env=self.env, cwd=self.work, timeout=CLI_TIMEOUT_S, text=True, encoding="utf-8"),
            reference.PROCESS)
        good = ok and proc.returncode == 0 and proc.stdout.strip() != ""
        if not good:
            self.counts["cli.exit_nonzero"] = self.counts.get("cli.exit_nonzero", 0) + 1
            detail = proc if not ok else f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
            self.fail.op(False, f"cli {argv[0]}: {detail}")
            return
        self.fail.op(True, "")
        self.cli_s.append((sub, t))
        if first and sub != "train":  # train prints its output path
            self.digest.update(proc.stdout.encode("utf-8"))

    # -- phases

    def probe_imports(self):
        """Median fresh-interpreter time of `import phonomem`; also records
        the time to import phonomem.cli as well."""
        probe = ("import time; t = time.perf_counter(); import phonomem; "
                 "a = time.perf_counter(); import phonomem.cli; "
                 "print(a - t, time.perf_counter() - t)")
        pkg, cli = [], []
        for _ in range(IMPORT_PROBES):
            ok, _, proc = self.op("setup.import", lambda: subprocess.run(
                [sys.executable, "-c", probe], capture_output=True, text=True,
                env=self.env, cwd=self.work, timeout=CLI_TIMEOUT_S), reference.PROCESS)
            if not ok or proc.returncode != 0:
                raise BenchError(f"import probe failed: {proc if not ok else proc.stderr[-300:]}")
            a, b = (float(x) for x in proc.stdout.split())
            pkg.append((a * self.last_scale, a))
            cli.append(b * self.last_scale)
        self.counts["cli.import.ms"] = 1e3 * median(cli)
        return med(pkg)

    def setup(self):
        """Ingest and warm up, setup_reps times."""
        for rep in range(self.cfg["setup_reps"]):
            t = self.ingest_cycle(first=rep == 0)
            for ctx in self.ctxs:  # warm-up: one query of each kind
                for kind in self.kinds:
                    args = inputs.query_args(inputs.rng_for(self.seed, "warm-up"), kind, ctx.lex)
                    t = add(t, self.one_query(ctx, kind, args, first=False, record=False)[0])
            self.setup_reps.append(t)

    def execute(self):
        self.sources = self.make_sources()
        self.import_s = self.probe_imports()
        self.setup()
        start = time.perf_counter()
        rounds = 0
        # With ingest passes in the round, each pass is followed by its share
        # of the round's queries and CLI calls: a run then samples them in
        # more than one stretch of the host's contention.
        parts = max(1, self.cfg["ingest_per_round"])
        while rounds == 0 or time.perf_counter() - start < self.seconds:
            first = rounds == 0
            for part in range(parts):
                if self.cfg["ingest_per_round"]:
                    self.ingest_cycle(first and part == 0)
                else:
                    self.reload()
                if part == 0:
                    if first:
                        self.make_query_set()
                    self.cli_per_round = self.next_cli_list()
                for ci, kind, args in share(self.query_set, part, parts):
                    self.query_s.append(self.one_query(self.ctxs[ci], kind, args, first)[0])
                for sub, argv in share(self.cli_per_round, part, parts):
                    self.cli_call(sub, argv, first)
            rounds += 1
        self.rounds = rounds
        self.loop_s = time.perf_counter() - start
        self.lexicon_share()
        if self.tr.enabled:
            self.replay_overhead()

    def lexicon_share(self):
        shared = total = 0
        for ctx in self.ctxs:
            heads: dict = {}
            for w in ctx.lexicon.words:
                heads[w[:2]] = heads.get(w[:2], 0) + 1
            shared += sum(1 for w in ctx.lexicon.words if len(w) >= 2 and heads[w[:2]] > 1)
            total += len(ctx.lexicon.words)
        self.counts["workload.lexicon_prefix2_shared_frac"] = shared / total

    def replay_overhead(self):
        """Replay the query set untraced and traced, alternating; the
        difference of the median replay times is the tracing overhead. The
        untraced replays' work counts must equal the traced first round's."""
        traced_tr = self.tr
        totals: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(OVERHEAD_REPLAYS):
            for traced in (False, True):
                self.tr = Tracer() if traced else NullTracer()
                seconds, counts = 0.0, {}
                for ci, kind, args in self.query_set:
                    t, c = self.one_query(self.ctxs[ci], kind, args, first=False, record=False)
                    seconds += t[0]
                    for k, v in c.items():
                        counts[k] = counts.get(k, 0) + v
                totals[traced].append(seconds)
                if counts != self.round_counts:
                    self.fail.op(False, "work counts differ between traced and untraced replay")
        self.tr = traced_tr
        plain = median(totals[False])
        self.counts["trace.overhead_pct"] = 100.0 * (median(totals[True]) - plain) / plain

    # -- results

    def cli_ms_p50(self, clock: int) -> float:
        """Median over subcommands of each subcommand's median call. At d=120
        the subcommands fall into a cheap and a dear group with a gap
        between them, and the median of all calls would sit in that gap."""
        by_sub: dict[str, list[float]] = {}
        for sub, t in self.cli_s:
            by_sub.setdefault(sub, []).append(1e3 * t[clock])
        return median(median(v) for v in by_sub.values())

    def end_to_end(self, clock: int = NOMINAL) -> dict[str, float]:
        """The end-to-end metrics on one clock: NOMINAL or RAW."""
        q = [1e3 * t[clock] for t in self.query_s]
        c = [1e3 * t[clock] for _, t in self.cli_s]
        q_tail, c_tail = self.tail_percentiles()
        setup = self.import_s[clock] + (med(self.setup_reps)[clock] if self.setup_reps else 0.0)
        return {
            "setup_s": setup,
            "train_s": med(self.passes["train"])[clock],
            "train_normalized_s": med(self.passes["train_normalized"])[clock],
            "load_s": med(self.passes["load"])[clock],
            "query_ms_p50": median(q),
            "query_ms_tail": percentile(q, q_tail),
            "queries_per_s": 1e3 * len(q) / sum(q),
            "cli_ms_p50": self.cli_ms_p50(clock),
            "cli_ms_tail": percentile(c, c_tail),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def exact_counts(self) -> dict[str, float]:
        out = {k: self.counts[k] for k in ("alphabet.symbols", "trainer.pairs",
                                           "storage.model_bytes")}
        rc = self.round_counts
        for k in ("model.candidate_evals", "generator.words_scored",
                  "generator.branch_nodes", "export.bytes"):
            out[k] = rc.get(k, 0)
        out["generator.predict_match_frac"] = (
            rc.get("generator.words_scored", 0) / rc["generator.words_scanned"]
            if rc.get("generator.words_scanned") else 0.0)
        out["workload.tail_reuse_frac"] = self.tail_steps[0] / max(1, self.tail_steps[1])
        out["workload.lexicon_prefix2_shared_frac"] = self.counts[
            "workload.lexicon_prefix2_shared_frac"]
        return out

    def per_layer(self, declared) -> dict[str, float]:
        medians = self.tr.layer_medians()
        values = dict(self.exact_counts())
        values["cli.import.ms"] = self.counts["cli.import.ms"]
        values["cli.exit_nonzero"] = self.counts.get("cli.exit_nonzero", 0)
        values["trace.overhead_pct"] = self.counts["trace.overhead_pct"]
        for m in declared:
            span, _, unit = m["name"].rpartition(".")
            if m["name"] not in values and unit in TIME_SCALE and span in medians:
                values[m["name"]] = medians[span] * TIME_SCALE[unit]
        return values

    def tail_percentiles(self) -> tuple[float, float]:
        """Fixed per workload: the tail over the rounds every run fits, so it
        does not move with how many rounds fit into a run. A run that fits
        fewer takes the tail over the rounds it fits."""
        rounds = min(self.rounds, self.cfg["tail_rounds"])
        return (tail_percentile(len(self.query_set) * rounds),
                tail_percentile(len(self.cli_per_round) * rounds))

    def record(self) -> dict:
        q_tail, c_tail = self.tail_percentiles()
        rec = {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.tr.enabled),
            "rounds": self.rounds,
            "loop_s": self.loop_s,
            "query_tail": {"percentile": q_tail, "n": len(self.query_s),
                           "beyond": beyond(len(self.query_s), q_tail)},
            "cli_tail": {"percentile": c_tail, "n": len(self.cli_s),
                         "beyond": beyond(len(self.cli_s), c_tail)},
            "passes": {k: len(v) for k, v in self.passes.items()},
            "reference_us": {"median": 1e6 * median(self.readings),
                             "min": 1e6 * min(self.readings)},
            # The end-to-end times as measured, before scaling to nominal
            # machine speed, so a claim can be checked on wall time too.
            "raw": {k: v for k, v in self.end_to_end(RAW).items() if k != "peak_rss_mib"},
            "counts": self.exact_counts(),
            "digest": self.digest.hexdigest(),
            "failed_checks": self.fail.first,
            "env": environment(self.seed),
        }
        if self.tr.enabled:
            rec["breakdown"] = self.tr.breakdown()
        return rec


def environment(seed: int) -> dict:
    import numpy

    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        declared = load_declaration()
        P = import_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # One CPU for this process and the CLI subprocesses it starts, so the
    # reference readings around a call see the core the call ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = scratch / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        run = Run(P, args.workload, args.seed, args.seconds, bool(args.trace), work)
        run.execute()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    if args.trace:
        values = run.per_layer(declared["per_layer"])
        wanted = declared["per_layer"]
    else:
        values = run.end_to_end()
        wanted = declared["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    print(json.dumps({"record": run.record()}, ensure_ascii=False))
    correct = run.fail.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.fail.attempted,
        "failed": run.fail.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    if not correct:
        print("perfbench: failed checks: " + "; ".join(run.fail.first), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
