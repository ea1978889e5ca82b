import numpy as np
import pytest

from phonomem import (
    Corpus,
    CorpusError,
    InteractionModel,
    TrainConfig,
    build_inventory,
    count_pairs,
    mean_interaction,
    parse_corpus,
    train,
    verify_decay,
)


def test_count_pairs_hand_case():
    corpus = parse_corpus(["ata"])
    pc = count_pairs(corpus, 2)
    al = corpus.alphabet
    a, t = al.index_of("a"), al.index_of("t")
    expected1 = np.zeros((2, 2))
    assert pc.counts[0][a][t] == 1
    assert pc.counts[0][t][a] == 1
    assert pc.counts[0].sum() == 2
    assert pc.counts[1][a][a] == 1
    assert pc.counts[1].sum() == 1


def test_count_pairs_empty_corpus_zeros():
    al = build_inventory(["ata"])
    pc = count_pairs(Corpus(al, ()), 3)
    assert pc.counts.shape == (3, 2, 2)
    assert pc.counts.sum() == 0


@pytest.mark.parametrize("name", ["latin", "turkish"])
def test_count_pairs_mass_invariant(name, request):
    corpus = request.getfixturevalue(name)
    pc = count_pairs(corpus, 3)
    for r in (1, 2, 3):
        # independent per-word counter
        expected = sum(max(0, len(w) - r) for w in corpus.words)
        assert pc.total(r) == expected


def test_count_pairs_rejects_bad_range(latin):
    with pytest.raises(ValueError):
        count_pairs(latin, 0)


def test_train_single_step_equals_counts():
    corpus = parse_corpus(["ata"])
    m = train(corpus, TrainConfig(eta=1.0, timesteps=1), r_max=3)
    al = corpus.alphabet
    a, t = al.index_of("a"), al.index_of("t")
    assert m.g[0][a][t] == 1.0
    assert m.g[0][t][a] == 1.0
    assert m.g[0][a][a] == 0.0 and m.g[0][t][t] == 0.0
    # the rank-2 pair (a, a) is also a count; rank 3 has no pairs in a 3-sound word
    assert m.g[1][a][a] == 1.0
    assert m.g[2].sum() == 0.0


def test_train_zero_steps_fills_g_init():
    corpus = parse_corpus(["ata"])
    m = train(corpus, TrainConfig(timesteps=0, g_init=0.25))
    assert np.all(m.g == 0.25)


def test_train_closed_form_on_corpora(latin, turkish):
    for corpus in (latin, turkish):
        cfg = TrainConfig()
        m = train(corpus, cfg)
        expected = cfg.g_init + cfg.eta * cfg.timesteps * count_pairs(corpus, 3).counts
        assert np.max(np.abs(m.g - expected)) <= 1e-9


def test_train_deterministic(latin):
    a = train(latin)
    b = train(latin)
    assert np.array_equal(a.g, b.g)
    assert a.meta == b.meta


def test_train_monotone_in_corpus(latin):
    small = Corpus(latin.alphabet, latin.words[:20], source="subset")
    large = Corpus(latin.alphabet, latin.words[:21], source="subset+1")
    g_small = train(small).g
    g_large = train(large).g
    assert np.all(g_large >= g_small)


def test_train_empty_corpus_errors(latin):
    with pytest.raises(CorpusError, match="empty corpus"):
        train(Corpus(latin.alphabet, ()))


def test_train_records_meta(latin):
    m = train(latin)
    meta = m.meta
    assert meta["corpus"]["num_words"] == 35
    assert meta["corpus"]["d"] == 18
    assert meta["corpus"]["sha256"] == latin.sha256()
    assert meta["corpus"]["words"][0] == "insula"
    assert meta["train"]["timesteps"] == 10_000


def test_train_normalized_mode(latin):
    cfg = TrainConfig(normalize="per-range-sum")
    m = train(latin, cfg)
    d = latin.alphabet.d
    counts = count_pairs(latin, 3).counts
    for r in range(3):
        assert m.g[r].sum() == pytest.approx(d * d, rel=1e-9)
        # entries stay proportional to counts within each range
        scale = d * d / counts[r].sum()
        assert np.allclose(m.g[r], counts[r] * scale, rtol=1e-9)


def _per_range_sum_loop(counts, d, cfg):
    """Reference: the full-tensor step and per-range rescale, step by step."""
    target = float(d * d)
    g = np.full_like(counts, cfg.g_init)
    for _ in range(cfg.timesteps):
        g += cfg.eta * counts
        for r in range(len(g)):
            mass = g[r].sum()
            if mass > 0.0:
                g[r] *= target / mass
    return g


@pytest.mark.parametrize("lines", [None, ["ab ba ca ac"]], ids=["latin", "two-sound"])
@pytest.mark.parametrize("eta, timesteps", [(1e-4, 10_000), (1e-3, 7), (0.5, 0), (2.0, 3)])
@pytest.mark.parametrize("g_init", [0.0, 0.5])
def test_per_range_sum_matches_tensor_loop(latin, lines, eta, timesteps, g_init):
    # Two-sound words leave ranges 2 and 3 without pairs (the mass-0 guard).
    corpus = latin if lines is None else parse_corpus(lines)
    cfg = TrainConfig(eta=eta, timesteps=timesteps, g_init=g_init, normalize="per-range-sum")
    counts = count_pairs(corpus, 3).counts.astype(np.float64)
    want = _per_range_sum_loop(counts, corpus.alphabet.d, cfg)
    np.testing.assert_allclose(train(corpus, cfg, r_max=3).g, want, rtol=1e-9, atol=0)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(eta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(timesteps=-1)
    with pytest.raises(ValueError):
        TrainConfig(normalize="per-word")
    with pytest.raises(ValueError):
        TrainConfig(g_init=-1.0)


def test_verify_decay_trivial_and_violating(latin):
    al = latin.alphabet
    zero = InteractionModel.untrained(al)
    assert verify_decay(zero)
    g = np.zeros((2, al.d, al.d))
    g[1] += 1.0  # mean(2) > mean(1)
    violating = InteractionModel(al, 2, 1.0, g)
    assert not verify_decay(violating)


def test_verify_decay_after_training(latin, turkish, latin_model, turkish_model):
    assert verify_decay(latin_model)
    assert verify_decay(turkish_model)
    # strict decrease whenever every word is longer than r_max
    long_words = tuple(w for w in latin.words if len(w) > 4)
    m = train(Corpus(latin.alphabet, long_words, source="long"))
    means = [mean_interaction(m, r) for r in (1, 2, 3)]
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("field", ["eta", "g_init"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        TrainConfig(**{field: value})


def test_verify_decay_equal_means_within_rounding(latin, turkish):
    # Every per-range-sum range has mean exactly 1 in real arithmetic.
    cfg = TrainConfig(eta=1e-3, timesteps=100, normalize="per-range-sum")
    for corpus in (latin, turkish):
        for r_max in (2, 3, 5):
            assert verify_decay(train(corpus, cfg, r_max=r_max))
    al = latin.alphabet
    g = np.ones((2, al.d, al.d))
    g[1] *= 1.0 + 1e-12  # a rise within rounding
    assert verify_decay(InteractionModel(al, 2, 1.0, g))
    g[1] = 1.0 + 1e-6  # a clear rise
    assert not verify_decay(InteractionModel(al, 2, 1.0, g))


def test_mean_interaction_finite_past_float64_sum(latin, latin_model):
    al = latin.alphabet
    g = np.full((2, al.d, al.d), 1e308)
    g[1, 0, 0] = 1.7e308  # range 2's mean is the larger
    m = InteractionModel(al, 2, 1.0, g)
    means = [mean_interaction(m, r) for r in (1, 2)]
    assert means[0] == pytest.approx(1e308, rel=1e-12)
    assert means[1] == pytest.approx(1e308 + 0.7e308 / al.d**2, rel=1e-12)
    assert not verify_decay(m)  # two overflowed means (inf, inf) would pass as decay
    g[1, 0, 0] = 0.0
    assert verify_decay(InteractionModel(al, 2, 1.0, g))
    # Entries of float64's largest value: g / g.size would sum past it again.
    g[:] = np.finfo(np.float64).max
    assert mean_interaction(InteractionModel(al, 2, 1.0, g), 1) == np.finfo(np.float64).max
    # A mean whose sum stays finite keeps its bits.
    for r in (1, 2, 3):
        assert mean_interaction(latin_model, r) == float(latin_model.g[r - 1].mean())


@pytest.mark.parametrize("normalize", ["none", "per-range-sum"])
def test_train_refuses_a_range_mass_past_float64(latin, normalize):
    # g_init * d*d is past float64 at d=18. Per-range-sum training would
    # divide by that inf mass and drop g_init: range means of 0.43, not 1.
    with pytest.raises(ValueError, match="overflows float64"):
        train(latin, TrainConfig(g_init=1e306, normalize=normalize))
    m = train(latin, TrainConfig(g_init=1e300, normalize="per-range-sum"))
    assert mean_interaction(m, 1) == pytest.approx(1.0, rel=1e-9)
