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
import expandforge.pipeline as pl
from expandforge.errors import NumericDivergenceError, ParameterError, ShapeError
from expandforge.rng import RngStream


@functools.lru_cache(maxsize=None)
def _setup(classes=4, per_class=25, side=16, embed_dim=64, latent_dim=32, latent_shape=(4, 8)):
    data = bk.gen_toy_dataset(classes, per_class, side, seed=7)
    codec = bk.fit_linear_codec(data, latent_dim=latent_dim, latent_shape=latent_shape)
    embedder = bk.make_embedder(data.images[0].pixels.shape, embed_dim, seed=0)
    exemplars = bk.gen_toy_dataset(classes, 8, side, seed=101)
    head = bk.fit_prototype_head(exemplars, embedder)
    return data, codec, embedder, head


def _stream(*parts):
    return RngStream.root(0).child("test", *parts)


def _params(shape, k, mode, stream):
    """One seed group's (z, b) stack, each (1, k, T, D)."""
    z, b = gd.init_perturbations(shape, k, mode, stream)
    return z[None], b[None]


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    for bad in (
        dict(epsilon=-0.1),
        dict(ratio_k=0),
        dict(steps=-1),
        dict(step_size=0.0),
        dict(retries=-1),
        dict(noise_mode="pixel"),
        dict(weights=(1.0, 1.0)),
        dict(weights=(-1.0, 0.0, 0.0)),
        dict(weights=(float("nan"), 1.0, 1.0)),
    ):
        with pytest.raises(ParameterError):
            pl.ExpansionConfig(**bad)


def test_init_perturbations_count_is_an_int():
    for k in (2.5, True, "2"):
        with pytest.raises(ParameterError):
            gd.init_perturbations((3, 5), k, "full", _stream("init-type"))


def test_config_flow_defaults():
    emb = gd.flow_config(pl.ExpansionConfig(), "gif_embed")
    assert emb.epsilon == 0.1
    assert emb.noise_mode == "full"
    lat = gd.flow_config(pl.ExpansionConfig(ratio_k=3), "gif_latent")
    assert lat.epsilon == 5.0
    assert lat.noise_mode == "channel"
    assert lat.ratio_k == 3
    assert emb.ratio_k == 5 and emb.steps == 10 and emb.step_size == 0.1
    assert emb.weights == (1.0, 1.0, 1.0) and emb.retries == 2
    # a flow fills in only the fields left None, and leaves its input as given
    for overrides, flow, epsilon, noise_mode in (
        (dict(), "gif_embed", 0.1, "full"),
        (dict(ratio_k=3), "gif_latent", 5.0, "channel"),
        (dict(epsilon=0.7), "gif_latent", 0.7, "channel"),
        (dict(noise_mode="token"), "gif_embed", 0.1, "token"),
        (dict(epsilon=0.0, noise_mode="full"), "gif_latent", 0.0, "full"),
    ):
        cfg = pl.ExpansionConfig(**overrides)
        got = gd.flow_config(cfg, flow)
        assert (got.epsilon, got.noise_mode) == (epsilon, noise_mode)
        assert got.as_dict() == {**cfg.as_dict(), "epsilon": epsilon, "noise_mode": noise_mode}
        assert cfg.epsilon == overrides.get("epsilon")


# ------------------------------------------------------- perturbation init


def test_init_perturbations_shapes_and_ranges():
    z, b = gd.init_perturbations((3, 5), 4, "full", _stream("init"))
    assert z.shape == (4, 3, 5) and b.shape == (4, 3, 5)
    assert np.all(z >= 0.0) and np.all(z < 1.0)
    assert np.all(np.isfinite(b))


def test_init_perturbations_deterministic_and_independent():
    za, ba = gd.init_perturbations((3, 5), 2, "full", _stream("det"))
    zb, bb = gd.init_perturbations((3, 5), 2, "full", _stream("det"))
    assert np.array_equal(za[0], zb[0]) and np.array_equal(ba[1], bb[1])
    assert not np.array_equal(za[0], za[1])


def test_init_perturbations_tied_modes():
    z, b = gd.init_perturbations((4, 6), 1, "channel", _stream("chan"))
    assert np.array_equal(z[0], np.tile(z[0, :1], (4, 1)))
    assert np.array_equal(b[0], np.tile(b[0, :1], (4, 1)))
    z, _ = gd.init_perturbations((4, 6), 1, "token", _stream("tok"))
    assert np.array_equal(z[0], np.tile(z[0, :, :1], (1, 6)))
    with pytest.raises(ParameterError):
        gd.init_perturbations((4, 6), 0, "full", _stream("bad"))
    with pytest.raises(ParameterError):
        gd.init_perturbations((4, 6), 1, "nope", _stream("bad"))


# ------------------------------------------------------------ ascent loop


class _LinearPath:
    """Objective sum over variants of sum(values): gradient is all ones."""

    def __call__(self, values):
        total = values.sum(axis=(1, 2, 3))
        return total, np.ones_like(values), np.full(values.shape[:2] + (2,), 0.5)


def test_trace_length_and_steps_zero():
    seed = lm.Latent(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
    cfg = pl.ExpansionConfig(
        epsilon=1e300, ratio_k=2, steps=0, step_size=0.05, noise_mode="full"
    )
    z, b = _params((3, 4), 2, "full", _stream("t0"))
    variants, trace = gd.optimize_guidance(seed.values[None], _LinearPath(), (z, b), cfg)
    assert len(trace) == 1 and variants.shape == (1, 2, 3, 4)
    with pytest.raises(ShapeError):
        gd.optimize_guidance(seed.values[None], _LinearPath(), (z, b[..., :3]), cfg)
    for i in range(2):
        want = lm.perturb_and_project(seed, lm.PerturbationParams(z[0, i], b[0, i]), np.inf)
        assert np.array_equal(variants[0, i], want.values)
        assert np.array_equal(trace.initial[0, i], want.values)


def test_linear_objective_gains_match_update_rule():
    # with gradient all ones, one step moves z by eta*f and b by eta, so the
    # objective gains exactly k * eta * (sum(f^2) + f.size) per step
    seed_values = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    eta, k, steps = 0.05, 3, 4
    cfg = pl.ExpansionConfig(
        epsilon=1e300, ratio_k=k, steps=steps, step_size=eta, noise_mode="full"
    )
    params = _params((3, 4), k, "full", _stream("lin"))
    _, trace = gd.optimize_guidance(seed_values[None], _LinearPath(), params, cfg)
    assert len(trace) == steps + 1
    gain = k * eta * (float(np.sum(seed_values**2)) + seed_values.size)
    diffs = np.diff(trace.group(0).objective)
    assert np.allclose(diffs, gain, rtol=1e-12)


def test_tied_modes_survive_updates():
    # with gradient all ones, a tied noise value moves by eta times the sum of
    # f (for z) or the count (for b) over its tied entries, and stays tied
    f = np.linspace(-1.0, 1.0, 20).reshape(4, 5)
    eta, steps = 0.01, 3
    for mode, axis in (("channel", 0), ("token", 1)):
        cfg = pl.ExpansionConfig(
            epsilon=1e300, ratio_k=2, steps=steps, step_size=eta, noise_mode=mode
        )
        z, b = _params(f.shape, 2, mode, _stream("tie", mode))
        variants, trace = gd.optimize_guidance(f[None], _LinearPath(), (z, b), cfg)
        assert len(trace) == steps + 1
        z_end = z + steps * eta * f.sum(axis=axis, keepdims=True)
        b_end = b + steps * eta * f.shape[axis]
        np.testing.assert_allclose(variants, (1.0 + z_end) * f + b_end, rtol=1e-12, atol=1e-12)


def test_zero_weights_freeze_the_variants():
    data, _, embedder, head = _setup()
    e0 = embedder.embed(data.images[0])
    seed = e0[None, None, :]
    path = gd.ScoreChain(head, (0.0, 0.0, 0.0), head.predict(e0).probs[None])
    still = dict(epsilon=0.3, ratio_k=3, weights=(0.0, 0.0, 0.0), noise_mode="full")
    moving = pl.ExpansionConfig(steps=5, **still)
    frozen = pl.ExpansionConfig(steps=0, **still)
    params = _params((1, e0.size), 3, "full", _stream("zw"))
    got, trace = gd.optimize_guidance(seed, path, params, moving)
    want, _ = gd.optimize_guidance(seed, path, params, frozen)
    assert np.array_equal(got, want)
    assert np.allclose(trace.objective, 0.0)


def test_divergence_error_names_the_step():
    # zero gradients times an infinite step size make the noise fields nan
    data, _, embedder, head = _setup()
    e0 = embedder.embed(data.images[0])
    path = gd.ScoreChain(head, (0.0, 0.0, 0.0), head.predict(e0).probs[None])
    cfg = pl.ExpansionConfig(
        epsilon=0.3, ratio_k=2, steps=5, step_size=float("1e309"), weights=(0.0, 0.0, 0.0),
        noise_mode="full",
    )
    params = _params((1, e0.size), 2, "full", _stream("div"))
    with pytest.raises(NumericDivergenceError) as err:
        gd.optimize_guidance(e0[None, None, :], path, params, cfg)
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
    data, _, embedder, head = _small_setup()
    e0 = embedder.embed(data.images[0])
    seed = lm.Latent(e0[None, :])
    weights = (1.0, 0.7, 0.3)
    path = gd.ScoreChain(head, weights, head.predict(e0).probs[None], gd.identity_lift)
    params = _params(seed.values.shape, 2, "full", _stream("fd-emb"))
    project = lambda z, b: lm.perturb_and_project_rows(seed.values, z, b, np.inf)
    _, grads, _ = path(project(*params))
    for i in range(2):
        for j, field in enumerate(("z", "b")):
            def objective(flat, i=i, j=j):
                trial = [params[0].copy(), params[1].copy()]
                trial[j][0, i] = flat.reshape(seed.values.shape)
                return path(project(*trial))[0][0]

            fd = _fd_grad(objective, params[j][0, i].ravel().copy(), 1e-5)
            chain = grads[0, i] * seed.values if field == "z" else grads[0, i]
            np.testing.assert_allclose(chain.ravel(), fd, rtol=1e-5, atol=1e-8)


def test_latent_path_gradient_matches_fd():
    data, codec, embedder, head = _small_setup()
    weights = (1.0, 0.7, 0.3)
    h = 1e-6
    chosen = None
    for idx in range(len(data.labels)):
        f0 = codec.encode(data.images[idx])
        z, b = _params(f0.values.shape, 2, "full", _stream("fd-lat", idx))
        variants = lm.perturb_and_project_rows(f0.values, z, b, np.inf)
        # FD across the decode clamp is only valid when no raw pixel sits
        # within the difference window of a clamp boundary
        margins = []
        for v in variants[0]:
            raw = codec.mean_image + codec.basis.T @ v.ravel()
            margins.append(min(np.min(np.abs(raw)), np.min(np.abs(raw - 1.0))))
        if min(margins) > 50.0 * h:
            chosen = (f0, variants)
            break
    assert chosen is not None, "no seed with clamp-safe margins"
    f0, variants = chosen
    seed_pred = head.predict(
        embedder.embed_flat(codec.decode_with_mask(f0.flat())[0])
    )
    path = gd.ScoreChain(head, weights, seed_pred.probs[None], gd.decode_lift(codec, embedder))
    _, grads, _ = path(variants)
    for i in range(2):
        def objective(flat, i=i):
            vs = variants.copy()
            vs[0, i] = flat.reshape(f0.values.shape)
            return path(vs)[0][0]

        fd = _fd_grad(objective, variants[0, i].ravel().copy(), h)
        np.testing.assert_allclose(grads[0, i].ravel(), fd, rtol=1e-4, atol=5e-7)


@pytest.mark.parametrize("flow", ["embedding", "latent"])
def test_chain_predictions_are_the_head_predictions(flow):
    # the flows take every variant's probabilities from the ascent's trace
    # and the seed's for the seed fallback, so both must equal a fresh predict
    data, codec, embedder, head = _setup()
    if flow == "embedding":
        e0 = embedder.embed(data.images[0])
        seed, seed_pred, lift = lm.Latent(e0[None, :]), head.predict(e0), gd.identity_lift
        cfg = gd.flow_config(pl.ExpansionConfig(ratio_k=3, steps=4), "gif_embed")
    else:
        seed = codec.encode(data.images[0])
        seed_pred = head.predict(embedder.embed_flat(codec.decode_with_mask(seed.flat())[0]))
        lift = gd.decode_lift(codec, embedder)
        cfg = gd.flow_config(pl.ExpansionConfig(ratio_k=3, steps=4), "gif_latent")
    chain = gd.ScoreChain(head, cfg.weights, seed_pred.probs[None], lift)
    z, b = _params(seed.values.shape, 3, cfg.noise_mode, _stream("preds", flow))
    emitted, trace = gd.optimize_guidance(seed.values[None], chain, (z, b), cfg)
    assert len(trace.probs) == cfg.steps + 1
    for i in range(3):
        params = lm.PerturbationParams(z[0, i], b[0, i], cfg.noise_mode)
        assert np.array_equal(
            trace.initial[0, i], lm.perturb_and_project(seed, params, cfg.epsilon).values
        )
    latents = np.concatenate([trace.initial[0], emitted[0]])
    for latent, got in zip(latents, np.concatenate([trace.probs[0][0], trace.probs[-1][0]])):
        want = head.predict(lift(latent.ravel())[0])
        assert np.array_equal(got, want.probs)
    _, _, at_seed = chain(seed.values[None, None])
    assert np.array_equal(at_seed[0, 0], seed_pred.probs)


# ---------------------------------------------------------- full flows


def _decode_embedding(codec, embedder, embedding):
    """One embedding decoded on its own: the embedder's orthonormal transpose
    into pixel space, then a codec round trip."""
    latent = codec.encode_flat(embedder.projection.T @ embedding + 0.5)
    clamped, _ = codec.decode_with_mask(latent)
    return bk.Image(clamped.reshape(codec.image_shape))


def test_embedding_decode_stack_is_bit_equal_to_per_embedding_reference(monkeypatch):
    data, codec, embedder, head = _setup()
    # stacked encode_flat rows are the per-row calls and the matrix formula
    pixels = np.stack([img.flat() for img in data.images[:6]]).reshape(2, 3, -1)
    latents = codec.encode_flat(pixels)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(latents[idx], codec.encode_flat(pixels[idx]))
        assert np.array_equal(latents[idx], codec.basis @ (pixels[idx] - codec.mean_image))
    # the block decodes every emitted embedding as the one-at-a-time reference does
    emitted = []
    expand_with_chain = gd._expand_with_chain

    def capture(*args):
        out = expand_with_chain(*args)
        emitted.append(out[0].copy())
        return out

    monkeypatch.setattr(gd, "_expand_with_chain", capture)
    seeds = data.pixels[[0, 30, 60, 90]]
    cfg = pl.ExpansionConfig(ratio_k=3, steps=2)
    streams = [_stream("stacked-decode", i) for i in range(len(seeds))]
    images, _, _ = gd.expand_embedding_block(seeds, codec, embedder, head, cfg, streams)
    (values,) = emitted
    assert values.shape == (4, 3, 1, embedder.embed_dim)
    for group, rows in zip(images, values):
        for img, row in zip(group, rows):
            want = _decode_embedding(codec, embedder, row.ravel())
            assert np.array_equal(img, want.pixels)
    # an embedder whose pixels are not the codec's cannot decode
    small = bk.gen_toy_dataset(4, 25, 8, seed=7)
    other = bk.fit_linear_codec(small, latent_dim=16, latent_shape=(4, 4))
    with pytest.raises(ShapeError):
        gd.expand_embedding_block(seeds[:1], other, embedder, head, cfg, streams[:1])
    with pytest.raises(ShapeError):
        other.encode_flat(pixels)


def test_embedding_flow_epsilon_zero_emits_decoded_seed():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(epsilon=0.0, ratio_k=3, steps=4)
    images, records, trace = gd.expand_seed_embedding_flow(
        data.images[0], codec, embedder, head, cfg, _stream("eps0")
    )
    reference = _decode_embedding(codec, embedder, embedder.embed(data.images[0]))
    for img in images:
        assert np.array_equal(img.pixels, reference.pixels)
    assert np.allclose(trace.objective, trace.objective[0])
    for rec in records:
        assert rec["consistent"] and not rec["fallback"] and rec["retry_count"] == 0


def test_embedding_flow_consistency_and_shapes():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=5, steps=10)
    images, records, trace = gd.expand_seed_embedding_flow(
        data.images[0], codec, embedder, head, cfg, _stream("emb-flow")
    )
    assert len(images) == 5 and len(records) == 5
    assert len(trace) == 11
    target = head.predict(embedder.embed(data.images[0])).argmax_class
    for rec, img in zip(records, images):
        assert rec["consistent"]
        assert rec["method"] == "gif_embed"
        assert img.pixels.shape == data.images[0].pixels.shape
        assert rec["retry_count"] <= cfg.retries + 1
        if rec["fallback"]:
            assert rec["retry_count"] == cfg.retries + 1
            assert head.predict(embedder.embed(img)).argmax_class == target
    assert [rec["variant_index"] for rec in records] == list(range(5))


def test_latent_flow_consistency_and_determinism():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=4, steps=5)
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
        assert rec["consistent"] and rec["method"] == "gif_latent"
    # the consistency contract holds in the emitted image domain
    recon, _ = codec.decode_with_mask(codec.encode(data.images[1]).flat())
    target = head.predict(embedder.embed_flat(recon)).argmax_class
    for img in images_a:
        assert head.predict(embedder.embed(img)).argmax_class == target


def test_latent_flow_epsilon_zero_bit_identical():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(epsilon=0.0, ratio_k=2, steps=3)
    images, records, _ = gd.expand_seed_latent_flow(
        data.images[2], codec, embedder, head, cfg, _stream("lat0")
    )
    reference = codec.decode(codec.encode(data.images[2]))
    for img in images:
        assert np.array_equal(img.pixels, reference.pixels)
    assert all(rec["consistent"] for rec in records)


class _HostilePath:
    """Rejects every latent except the exact seed: exercises the fallback."""

    def __init__(self, seed_values):
        self.seed_values = seed_values

    def select(self, groups):
        return self

    def __call__(self, values):
        at_seed = np.all(values == self.seed_values, axis=(2, 3))
        probs = np.where(at_seed[..., None], [0.9, 0.1], [0.1, 0.9])
        return np.full(len(values), 0.5), np.zeros_like(values), probs


def test_fallback_after_exhausted_retries():
    seed_values = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
    path = _HostilePath(seed_values)
    seed_probs = np.array([[0.9, 0.1]])
    stream = _stream("fallback")
    for steps in (0, 2):
        cfg = pl.ExpansionConfig(epsilon=0.5, ratio_k=3, steps=steps, retries=2, noise_mode="full")
        emitted, (records,), trace = gd._expand_with_chain(
            path, seed_values[None], seed_probs, "gif_embed", cfg, [stream]
        )
        # the initial scores are those of the init draw, whatever the retries
        # and the fallback wrote over the emitted variants (at steps 0 the
        # same rows)
        z, b = gd.init_perturbations((2, 4), 3, cfg.noise_mode, stream)
        initial = [
            lm.perturb_and_project(lm.Latent(seed_values), lm.PerturbationParams(z[i], b[i]), 0.5)
            for i in range(3)
        ]
        assert np.array_equal(trace.initial[0], np.stack([v.values for v in initial]))
        r = lm.softmax(np.mean([v.values.ravel() for v in initial], axis=0))
        for v, rec in zip(initial, records):
            assert rec["scores_initial"]["s_div"] == lm.kl_divergence(lm.softmax(v.values.ravel()), r)
            assert rec["scores_initial"]["s_div"] > 0
        for lat, rec in zip(emitted[0], records):
            assert np.array_equal(lat, seed_values)
            assert rec["fallback"]
            assert rec["retry_count"] == cfg.retries + 1
            assert rec["consistent"]
            # identical emitted latents: diversity is zero up to mean rounding
            assert abs(rec["scores_final"]["s_div"]) < 1e-12


def test_record_stream_ids_name_the_variant():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=2, steps=1)
    stream = _stream("ids")
    _, records, _ = gd.expand_seed_embedding_flow(
        data.images[0], codec, embedder, head, cfg, stream
    )
    for i, rec in enumerate(records):
        assert rec["stream_id"] == stream.child("variant", i).id
        assert rec["seed_index"] == -1 and rec["qualified"]
