"""Tests for the guided expansion flows.

Gradient checks compare the analytic ascent directions against central
finite differences of the same objective. FD oracle values are recomputed
on every run rather than frozen: the objective composes seeded backends,
so the comparison is deterministic anyway.
"""

import functools

import numpy as np
import pytest

import expandforge.backends as bk
import expandforge.guidance as gd
import expandforge.latentmath as lm
from expandforge.errors import NumericDivergenceError, ParameterError
from expandforge.rng import RngStream


@functools.lru_cache(maxsize=None)
def _setup(classes=4, per_class=25, side=16, embed_dim=64, latent_dim=32, latent_shape=(4, 8)):
    data = bk.gen_toy_dataset(classes, per_class, side, seed=7)
    codec = bk.fit_linear_codec(data, latent_dim=latent_dim, latent_shape=latent_shape)
    embedder = bk.make_embedder(data.images[0].pixels.shape, embed_dim, seed=0)
    exemplars = bk.gen_toy_dataset(classes, 8, side, seed=101)
    head = bk.fit_prototype_head(exemplars, embedder)
    decoder = bk.EmbeddingDecoder(embedder, codec)
    return data, codec, embedder, head, decoder


def _stream(*parts):
    return RngStream.root(0).child("test", *parts)


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=-0.1)
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, ratio_k=0)
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, steps=-1)
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, step_size=0.0)
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, retries=-1)
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, noise_mode="pixel")
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, weights=(1.0, 1.0))
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, weights=(-1.0, 0.0, 0.0))
    with pytest.raises(ParameterError):
        gd.GuidanceConfig(epsilon=0.1, weights=(float("nan"), 1.0, 1.0))


def test_config_flow_defaults():
    emb = gd.GuidanceConfig.embedding_defaults()
    assert emb.epsilon == 0.1
    assert emb.noise_mode == "full"
    lat = gd.GuidanceConfig.latent_defaults(ratio_k=3)
    assert lat.epsilon == 5.0
    assert lat.noise_mode == "channel"
    assert lat.ratio_k == 3
    assert emb.ratio_k == 5 and emb.steps == 10 and emb.step_size == 0.1
    assert emb.weights == (1.0, 1.0, 1.0) and emb.retries == 2


# ------------------------------------------------------- perturbation init


def test_init_perturbations_shapes_and_ranges():
    params = gd.init_perturbations((3, 5), 4, "full", _stream("init"))
    assert len(params) == 4
    for p in params:
        assert p.z.shape == (3, 5) and p.b.shape == (3, 5)
        assert np.all(p.z >= 0.0) and np.all(p.z < 1.0)
        assert np.all(np.isfinite(p.b))


def test_init_perturbations_deterministic_and_independent():
    a = gd.init_perturbations((3, 5), 2, "full", _stream("det"))
    b = gd.init_perturbations((3, 5), 2, "full", _stream("det"))
    assert np.array_equal(a[0].z, b[0].z) and np.array_equal(a[1].b, b[1].b)
    assert not np.array_equal(a[0].z, a[1].z)


def test_init_perturbations_tied_modes():
    chan = gd.init_perturbations((4, 6), 1, "channel", _stream("chan"))[0]
    assert np.array_equal(chan.z, np.tile(chan.z[:1], (4, 1)))
    assert np.array_equal(chan.b, np.tile(chan.b[:1], (4, 1)))
    tok = gd.init_perturbations((4, 6), 1, "token", _stream("tok"))[0]
    assert np.array_equal(tok.z, np.tile(tok.z[:, :1], (1, 6)))
    with pytest.raises(ParameterError):
        gd.init_perturbations((4, 6), 0, "full", _stream("bad"))
    with pytest.raises(ParameterError):
        gd.init_perturbations((4, 6), 1, "nope", _stream("bad"))


# ------------------------------------------------------------ ascent loop


class _LinearPath:
    """Objective sum over variants of sum(values): gradient is all ones."""

    def __call__(self, variants):
        s_con = sum(float(v.values.sum()) for v in variants)
        scores = lm.GuidanceScores(s_con=s_con, s_ent=0.0, s_div=0.0, weights=(1.0, 0.0, 0.0))
        return scores, [np.ones_like(v.values) for v in variants], [None] * len(variants)


def test_trace_length_and_steps_zero():
    seed = lm.Latent(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
    cfg = gd.GuidanceConfig(epsilon=np.inf, ratio_k=2, steps=0, step_size=0.05)
    variants, trace = gd.optimize_guidance(seed, _LinearPath(), 2, cfg, _stream("t0"))
    assert len(trace) == 1
    params = gd.init_perturbations((3, 4), 2, "full", _stream("t0"))
    expected = [lm.perturb_and_project(seed, p, np.inf) for p in params]
    for got, want in zip(variants, expected):
        assert np.array_equal(got.values, want.values)


def test_linear_objective_gains_match_update_rule():
    # with gradient all ones, one step moves z by eta*f and b by eta, so the
    # objective gains exactly k * eta * (sum(f^2) + f.size) per step
    seed_values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    seed = lm.Latent(seed_values)
    eta, k, steps = 0.05, 3, 4
    cfg = gd.GuidanceConfig(epsilon=np.inf, ratio_k=k, steps=steps, step_size=eta)
    _, trace = gd.optimize_guidance(seed, _LinearPath(), k, cfg, _stream("lin"))
    assert len(trace) == steps + 1
    gain = k * eta * (float(np.sum(seed_values**2)) + seed_values.size)
    diffs = np.diff(trace.objective)
    assert np.allclose(diffs, gain, rtol=1e-12)


def test_tied_modes_survive_updates():
    # PerturbationParams re-validates the tie on every construction, so a
    # multi-step run in a tied mode only completes if updates preserve it
    seed = lm.Latent(np.linspace(-1.0, 1.0, 20).reshape(4, 5))
    for mode in ("channel", "token"):
        cfg = gd.GuidanceConfig(
            epsilon=np.inf, ratio_k=2, steps=3, step_size=0.01, noise_mode=mode
        )
        _, trace = gd.optimize_guidance(seed, _LinearPath(), 2, cfg, _stream("tie", mode))
        assert len(trace) == 4


def test_zero_weights_freeze_the_variants():
    data, _, embedder, head, _ = _setup()
    e0 = embedder.embed(data.images[0])
    seed = lm.Latent(e0[None, :])
    path = gd.ScoreChain(head, (0.0, 0.0, 0.0), head.predict(e0))
    moving = gd.GuidanceConfig(epsilon=0.3, ratio_k=3, steps=5, weights=(0.0, 0.0, 0.0))
    frozen = gd.GuidanceConfig(epsilon=0.3, ratio_k=3, steps=0, weights=(0.0, 0.0, 0.0))
    got, trace = gd.optimize_guidance(seed, path, 3, moving, _stream("zw"))
    want, _ = gd.optimize_guidance(seed, path, 3, frozen, _stream("zw"))
    for g, w in zip(got, want):
        assert np.array_equal(g.values, w.values)
    assert np.allclose(trace.objective, 0.0)


def test_divergence_error_names_the_step():
    # zero gradients times an infinite step size make the noise fields nan
    data, _, embedder, head, _ = _setup()
    e0 = embedder.embed(data.images[0])
    seed = lm.Latent(e0[None, :])
    path = gd.ScoreChain(head, (0.0, 0.0, 0.0), head.predict(e0))
    cfg = gd.GuidanceConfig(
        epsilon=0.3, ratio_k=2, steps=5, step_size=float("1e309"), weights=(0.0, 0.0, 0.0)
    )
    with pytest.raises(NumericDivergenceError) as err:
        gd.optimize_guidance(seed, path, 2, cfg, _stream("div"))
    assert "step 1" in str(err.value)


# -------------------------------------------------------- gradient checks


@functools.lru_cache(maxsize=None)
def _small_setup():
    return _setup(classes=4, per_class=25, side=8, embed_dim=16, latent_dim=16,
                  latent_shape=(4, 4))


def _fd_grad(fn, arr, h):
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = arr.copy()
        minus = arr.copy()
        plus[idx] += h
        minus[idx] -= h
        grad[idx] = (fn(plus) - fn(minus)) / (2.0 * h)
        it.iternext()
    return grad


def test_embedding_path_gradient_matches_fd():
    data, _, embedder, head, _ = _small_setup()
    e0 = embedder.embed(data.images[0])
    seed = lm.Latent(e0[None, :])
    weights = (1.0, 0.7, 0.3)
    path = gd.ScoreChain(head, weights, head.predict(e0), gd.identity_lift)
    params = gd.init_perturbations(seed.values.shape, 2, "full", _stream("fd-emb"))
    variants = [lm.perturb_and_project(seed, p, np.inf) for p in params]
    _, grads, _ = path(variants)
    for i in range(2):
        for field in ("z", "b"):
            def objective(flat, i=i, field=field):
                trial = [lm.PerturbationParams(p.z.copy(), p.b.copy(), p.noise_mode)
                         for p in params]
                setattr(trial[i], field, flat.reshape(seed.values.shape))
                vs = [lm.perturb_and_project(seed, p, np.inf) for p in trial]
                return path(vs)[0].total

            fd = _fd_grad(objective, getattr(params[i], field).ravel().copy(), 1e-5)
            chain = grads[i] * seed.values if field == "z" else grads[i]
            np.testing.assert_allclose(chain.ravel(), fd, rtol=1e-5, atol=1e-8)


def test_latent_path_gradient_matches_fd():
    data, codec, embedder, head, _ = _small_setup()
    weights = (1.0, 0.7, 0.3)
    h = 1e-6
    chosen = None
    for idx in range(len(data.labels)):
        f0 = codec.encode(data.images[idx])
        params = gd.init_perturbations(f0.values.shape, 2, "full", _stream("fd-lat", idx))
        variants = [lm.perturb_and_project(f0, p, np.inf) for p in params]
        # FD across the decode clamp is only valid when no raw pixel sits
        # within the difference window of a clamp boundary
        margins = []
        for v in variants:
            raw = codec.mean_image + codec.basis.T @ v.flat()
            margins.append(min(np.min(np.abs(raw)), np.min(np.abs(raw - 1.0))))
        if min(margins) > 50.0 * h:
            chosen = (f0, variants)
            break
    assert chosen is not None, "no seed with clamp-safe margins"
    f0, variants = chosen
    seed_pred = head.predict(
        embedder.embed_flat(codec.decode_with_mask(f0.flat())[0])
    )
    path = gd.ScoreChain(head, weights, seed_pred, gd.decode_lift(codec, embedder))
    _, grads, _ = path(variants)
    for i in range(2):
        def objective(flat, i=i):
            vs = list(variants)
            vs[i] = lm.Latent(flat.reshape(f0.values.shape))
            return path(vs)[0].total

        fd = _fd_grad(objective, variants[i].values.ravel().copy(), h)
        np.testing.assert_allclose(grads[i].ravel(), fd, rtol=1e-4, atol=5e-7)


@pytest.mark.parametrize("flow", ["embedding", "latent"])
def test_chain_predictions_are_the_head_predictions(flow):
    # the flows take every variant's prediction from the ascent's trace and
    # use seed_pred for the seed fallback, so both must equal a fresh predict
    data, codec, embedder, head, _ = _setup()
    if flow == "embedding":
        e0 = embedder.embed(data.images[0])
        seed, seed_pred, lift = lm.Latent(e0[None, :]), head.predict(e0), gd.identity_lift
        cfg = gd.GuidanceConfig.embedding_defaults(ratio_k=3, steps=4)
    else:
        seed = codec.encode(data.images[0])
        seed_pred = head.predict(embedder.embed_flat(codec.decode_with_mask(seed.flat())[0]))
        lift = gd.decode_lift(codec, embedder)
        cfg = gd.GuidanceConfig.latent_defaults(ratio_k=3, steps=4)
    chain = gd.ScoreChain(head, cfg.weights, seed_pred, lift)
    params = gd.init_perturbations(seed.values.shape, 3, cfg.noise_mode, _stream("preds", flow))
    emitted, trace = gd.optimize_guidance(seed, chain, 3, cfg, _stream(), initial_params=params)
    assert len(trace.preds) == cfg.steps + 1
    initial = [lm.perturb_and_project(seed, p, cfg.epsilon) for p in params]
    for latent, got in zip(initial + emitted, trace.preds[0] + trace.preds[-1]):
        want = head.predict(lift(latent.flat())[0])
        assert np.array_equal(got.probs, want.probs)
        assert np.array_equal(got.affinities, want.affinities)
    _, _, (at_seed,) = chain([lm.Latent(seed.values.copy())])
    assert np.array_equal(at_seed.probs, seed_pred.probs)
    assert np.array_equal(at_seed.affinities, seed_pred.affinities)


# ---------------------------------------------------------- full flows


def test_embedding_flow_epsilon_zero_emits_decoded_seed():
    data, _, embedder, head, decoder = _setup()
    cfg = gd.GuidanceConfig.embedding_defaults(epsilon=0.0, ratio_k=3, steps=4)
    images, records, trace = gd.expand_seed_embedding_flow(
        data.images[0], embedder, head, decoder, cfg, _stream("eps0")
    )
    reference = decoder(embedder.embed(data.images[0]))
    for img in images:
        assert np.array_equal(img.pixels, reference.pixels)
    assert np.allclose(trace.objective, trace.objective[0])
    for rec in records:
        assert rec.consistent and not rec.fallback and rec.retry_count == 0


def test_embedding_flow_consistency_and_shapes():
    data, _, embedder, head, decoder = _setup()
    cfg = gd.GuidanceConfig.embedding_defaults(ratio_k=5, steps=10)
    images, records, trace = gd.expand_seed_embedding_flow(
        data.images[0], embedder, head, decoder, cfg, _stream("emb-flow")
    )
    assert len(images) == 5 and len(records) == 5
    assert len(trace) == 11
    target = head.predict(embedder.embed(data.images[0])).argmax_class
    for rec, img in zip(records, images):
        assert rec.consistent
        assert rec.method == "gif_embed"
        assert img.pixels.shape == data.images[0].pixels.shape
        assert rec.retry_count <= cfg.retries + 1
        if rec.fallback:
            assert rec.retry_count == cfg.retries + 1
            assert head.predict(embedder.embed(img)).argmax_class == target
    assert [rec.variant_index for rec in records] == list(range(5))


def test_latent_flow_consistency_and_determinism():
    data, codec, embedder, head, _ = _setup()
    cfg = gd.GuidanceConfig.latent_defaults(ratio_k=4, steps=5)
    run = lambda s: gd.expand_seed_latent_flow(
        data.images[1], codec, embedder, head, cfg, s
    )
    images_a, records_a, _ = run(_stream("lat-flow"))
    images_b, _, _ = run(_stream("lat-flow"))
    images_c, _, _ = run(_stream("lat-flow-alt"))
    assert len(images_a) == 4
    for a, b in zip(images_a, images_b):
        assert np.array_equal(a.pixels, b.pixels)
    assert any(
        not np.array_equal(a.pixels, c.pixels) for a, c in zip(images_a, images_c)
    )
    for rec in records_a:
        assert rec.consistent and rec.method == "gif_latent"
    # the consistency contract holds in the emitted image domain
    recon, _ = codec.decode_with_mask(codec.encode(data.images[1]).flat())
    target = head.predict(embedder.embed_flat(recon)).argmax_class
    for img in images_a:
        assert head.predict(embedder.embed(img)).argmax_class == target


def test_latent_flow_epsilon_zero_bit_identical():
    data, codec, embedder, head, _ = _setup()
    cfg = gd.GuidanceConfig.latent_defaults(epsilon=0.0, ratio_k=2, steps=3)
    images, records, _ = gd.expand_seed_latent_flow(
        data.images[2], codec, embedder, head, cfg, _stream("lat0")
    )
    reference = codec.decode(codec.encode(data.images[2]))
    for img in images:
        assert np.array_equal(img.pixels, reference.pixels)
    assert all(rec.consistent for rec in records)


class _HostilePath:
    """Rejects every latent except the exact seed: exercises the fallback."""

    def __init__(self, seed_values):
        self.seed_values = seed_values

    def __call__(self, variants):
        scores = lm.GuidanceScores(s_con=0.5, s_ent=0.0, s_div=0.0)
        preds = [
            lm.Prediction.from_probs(
                np.array([0.9, 0.1] if np.array_equal(v.values, self.seed_values) else [0.1, 0.9])
            )
            for v in variants
        ]
        return scores, [np.zeros_like(v.values) for v in variants], preds


def test_fallback_after_exhausted_retries():
    seed_values = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
    seed = lm.Latent(seed_values)
    path = _HostilePath(seed_values)
    seed_pred = lm.Prediction.from_probs(np.array([0.9, 0.1]))
    cfg = gd.GuidanceConfig(epsilon=0.5, ratio_k=3, steps=2, retries=2)
    emitted, records, _ = gd._expand_with_chain(
        path, seed, seed_pred, "gif_embed", cfg, _stream("fallback")
    )
    for lat, rec in zip(emitted, records):
        assert np.array_equal(lat.values, seed_values)
        assert rec.fallback
        assert rec.retry_count == cfg.retries + 1
        assert rec.consistent
        # identical emitted latents: diversity is zero up to mean rounding
        assert abs(rec.scores_final.s_div) < 1e-12


def test_record_stream_ids_name_the_variant():
    data, _, embedder, head, decoder = _setup()
    cfg = gd.GuidanceConfig.embedding_defaults(ratio_k=2, steps=1)
    stream = _stream("ids")
    _, records, _ = gd.expand_seed_embedding_flow(
        data.images[0], embedder, head, decoder, cfg, stream
    )
    for i, rec in enumerate(records):
        assert rec.stream_id == stream.child("variant", i).id
        assert rec.seed_index == -1 and rec.qualified
