"""Property: over a bounded grammar of every subcommand, the CLI exits 0, 1
or 2, raises nothing, prints no traceback or warning, and never prints a
non-finite number on success. Depths, steps and ranges are capped so that
no example can blow up."""

import contextlib
import io
import json
import re
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from phonomem.cli import main

FLOATS = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "0.5", "2", "1e308"])
INTS = st.integers(-3, 5)
MODELS = st.sampled_from(["{model}", "{normalized}", "{nan_g0}", "{binary}", "{missing}"])
CORPORA = st.sampled_from(["@latin", "@turkish", "@nope", "{binary}", "{missing}"])
# Valid Latin words and prefixes, and words holding a sound Latin lacks.
WORDS = st.sampled_from(["", "s", "in", "serv", "pāstō", "ovibus", "qz", "servß"])

# A non-finite number as _fmt, a DOT label or json.dumps prints it; words of
# the grammar's models never start a number field, and hold no capitals.
NON_FINITE = re.compile(r'(?<=[=\t: ])[-+]?(?:nan|inf)(?![^\s,\]}"])|NaN|Infinity')


def opt(flag, values):
    """An optional `--flag=value` (the = form lets values like -inf parse)."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


def command(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


def one(values):
    return values.map(lambda v: [v])


ARGV = st.one_of(
    command(st.just(["train"]), one(CORPORA), one(st.sampled_from(["{out}", "{missing}/m.json"])),
            opt("--r-max", st.integers(-3, 4)), opt("--g0", FLOATS), opt("--eta", FLOATS),
            opt("--steps", st.integers(-3, 200)), opt("--g-init", FLOATS),
            opt("--normalize", st.sampled_from(["none", "per-range-sum"]))),
    command(st.just(["inspect"]), one(MODELS), st.sampled_from([[], ["--reciprocal"]])),
    command(st.just(["energy"]), one(MODELS), one(WORDS),
            st.sampled_from([[], ["--profile"]])),
    command(st.just(["generate"]), one(MODELS), one(WORDS), opt("--steps", st.integers(-3, 40)),
            opt("--stop-tau", FLOATS), opt("--max-steps", st.integers(-3, 40)),
            opt("--p-next", FLOATS), opt("--seed", INTS)),
    command(st.just(["branch"]), one(MODELS), one(WORDS), opt("--right", INTS),
            opt("--down", INTS), opt("--format", st.sampled_from(["dot", "json"])),
            opt("--out", st.sampled_from(["-", "{out}"])), opt("--corpus", CORPORA)),
    command(st.just(["segment"]), one(MODELS), one(WORDS), one(FLOATS.map(
        lambda v: f"--threshold={v}"))),
    command(st.just(["predict"]), one(MODELS), one(WORDS), opt("--lexicon", CORPORA),
            opt("--beta", FLOATS), opt("--limit", INTS)),
    command(st.just(["explore"]), one(MODELS), st.one_of(st.just([]), one(WORDS))),
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("property")
    model, normalized = base / "latin.json", base / "latin-norm.json"
    assert main(["train", "@latin", str(model)]) == 0
    assert main(["train", "@latin", str(normalized), "--normalize", "per-range-sum"]) == 0
    payload = json.loads(model.read_text(encoding="utf-8"))
    payload["g0"] = float("nan")
    nan_g0 = base / "nan-g0.json"
    nan_g0.write_text(json.dumps(payload), encoding="utf-8")
    binary = base / "binary.json"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00\xff\xfe\x80\x81")
    return {"model": model, "normalized": normalized, "nan_g0": nan_g0, "binary": binary,
            "missing": base / "missing.json", "out": base / "out"}


def run(argv):
    """main(argv) with empty stdin; returns (code, stdout, stderr, warnings)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO("")
    try:
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), caught


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV)
def test_cli_contract_holds_over_grammar(files, argv):
    code, out, err, caught = run([a.format(**files) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "Warning" not in err
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert not NON_FINITE.search(out), out
