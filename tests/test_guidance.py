"""Tests for the guided expansion flows.

Gradient checks compare the analytic ascent directions against central
finite differences of the same objective. FD oracle values are recomputed
on every run rather than frozen: the objective composes seeded backends,
so the comparison is deterministic anyway.
"""

import functools
import math

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
    path = gd.ScoreChain(head, (0.0, 0.0, 0.0), head.predict_rows(e0)[None])
    still = dict(epsilon=0.3, ratio_k=3, weights=(0.0, 0.0, 0.0), noise_mode="full")
    moving = pl.ExpansionConfig(steps=5, **still)
    frozen = pl.ExpansionConfig(steps=0, **still)
    params = _params((1, e0.size), 3, "full", _stream("zw"))
    got, trace = gd.optimize_guidance(seed, path, params, moving)
    want, _ = gd.optimize_guidance(seed, path, params, frozen)
    assert np.array_equal(got, want)
    assert np.allclose(trace.objective, 0.0)


@pytest.mark.parametrize("where, bad", [
    ("update", None),
    *((where, bad) for where in ("z", "b", "seed") for bad in (math.nan, math.inf, -math.inf)),
])
def test_divergence_error_names_the_step(where, bad):
    # the first update, gradients of large weights times the largest finite
    # step size, overflows the noise fields; a non-finite noise or seed entry
    # is flagged at step 0, before any update
    data, _, embedder, head = _setup()
    e0 = embedder.embed(data.images[0])
    weights = (1e3, 1e3, 1e3)
    path = gd.ScoreChain(head, weights, head.predict_rows(e0)[None])
    cfg = pl.ExpansionConfig(
        epsilon=0.3, ratio_k=2, steps=5, step_size=1e308, weights=weights, noise_mode="full",
    )
    z, b = _params((1, e0.size), 2, "full", _stream("div"))
    seed = e0[None, None, :].copy()
    arrays = {"z": z, "b": b, "seed": seed}
    if where in arrays:
        arrays[where][..., 0] = bad
    with pytest.raises(NumericDivergenceError) as err:
        gd.optimize_guidance(seed, path, (z, b), cfg)
    assert f"step {0 if where in arrays else 1}" in str(err.value)


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
    path = gd.ScoreChain(head, weights, head.predict_rows(e0)[None], gd.identity_lift)
    params = _params(seed.values.shape, 2, "full", _stream("fd-emb"))
    bounds = lm.projection_bounds(seed.values, np.inf)
    project = lambda z, b: lm.perturb_and_project_rows(seed.values, z, b, np.inf, bounds)
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
        variants = lm.perturb_and_project_rows(f0.values, z, b, np.inf,
                                               lm.projection_bounds(f0.values, np.inf))
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
    seed_pred = head.predict_rows(
        embedder.embed_flat(codec.decode_with_mask(f0.flat())[0])
    )
    path = gd.ScoreChain(head, weights, seed_pred[None], gd.decode_lift(codec, embedder))
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
        seed, seed_pred, lift = lm.Latent(e0[None, :]), head.predict_rows(e0), gd.identity_lift
        cfg = gd.flow_config(pl.ExpansionConfig(ratio_k=3, steps=4), "gif_embed")
    else:
        seed = codec.encode(data.images[0])
        seed_pred = head.predict_rows(embedder.embed_flat(codec.decode_with_mask(seed.flat())[0]))
        lift = gd.decode_lift(codec, embedder)
        cfg = gd.flow_config(pl.ExpansionConfig(ratio_k=3, steps=4), "gif_latent")
    chain = gd.ScoreChain(head, cfg.weights, seed_pred[None], lift)
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
        want = head.predict_rows(lift(latent.ravel())[0])
        assert np.array_equal(got, want)
    _, _, at_seed = chain(seed.values[None, None])
    assert np.array_equal(at_seed[0, 0], seed_pred)


# ---------------------------------------------------------- full flows


def _decode_embedding(embedder, seed, embedding):
    """One embedding decoded on its own by its residual: the seed Image's
    pixels plus the embedder's orthonormal transpose of the embedding's move."""
    move = embedder.projection.T @ (embedding - embedder.embed(seed))
    return bk.Image(np.clip(seed.flat() + move, 0.0, 1.0).reshape(seed.pixels.shape))


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
    picked = [0, 30, 60, 90]
    seeds = data.pixels[picked]
    cfg = pl.ExpansionConfig(ratio_k=3, steps=2)
    streams = [_stream("stacked-decode", i) for i in range(len(seeds))]
    images, _, _ = gd.expand_embedding_block(seeds, codec, embedder, head, cfg, streams)
    (values,) = emitted
    assert values.shape == (4, 3, 1, embedder.embed_dim)
    for group, rows, i in zip(images, values, picked):
        for img, row in zip(group, rows):
            want = _decode_embedding(embedder, data.images[i], row.ravel())
            assert np.array_equal(img, want.pixels)
    # a codec refuses pixels of another size
    small = bk.gen_toy_dataset(4, 25, 8, seed=7)
    other = bk.fit_linear_codec(small, latent_dim=16, latent_shape=(4, 4))
    with pytest.raises(ShapeError):
        other.encode_flat(pixels)


def test_embedding_flow_epsilon_zero_emits_decoded_seed():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(epsilon=0.0, ratio_k=3, steps=4)
    images, columns, trace = gd.expand_seed_embedding_flow(
        data.images[0], codec, embedder, head, cfg, _stream("eps0")
    )
    for img in images:
        assert np.array_equal(img.pixels, data.images[0].pixels)
    assert np.allclose(trace.objective, trace.objective[0])
    assert columns["consistent"].all() and not columns["fallback"].any()
    assert (columns["retry_count"] == 0).all()


# the per-variant shape of each array column a guided flow reports; its
# stream_id column is a list of the variants' stream ids
_COLUMN_SHAPES = {"scores_initial": (3,), "scores_final": (3,), "consistent": (),
                  "retry_count": (), "fallback": (), "qualified": ()}


def test_embedding_flow_consistency_and_shapes():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=5, steps=10)
    images, columns, trace = gd.expand_seed_embedding_flow(
        data.images[0], codec, embedder, head, cfg, _stream("emb-flow")
    )
    assert len(images) == 5
    # one entry per variant
    assert sorted(columns) == sorted([*_COLUMN_SHAPES, "stream_id"])
    for key, shape in _COLUMN_SHAPES.items():
        assert columns[key].shape == (5,) + shape
    assert columns["stream_id"] == [_stream("emb-flow").child("variant", i).id for i in range(5)]
    assert columns["qualified"].all()
    assert len(trace) == 11
    target = head.predict_rows(embedder.embed(data.images[0])).argmax()
    assert columns["consistent"].all()
    for i, img in enumerate(images):
        assert img.pixels.shape == data.images[0].pixels.shape
        assert columns["retry_count"][i] <= cfg.retries + 1
        if columns["fallback"][i]:
            assert columns["retry_count"][i] == cfg.retries + 1
            assert head.predict_rows(embedder.embed(img)).argmax() == target


def test_latent_flow_consistency_and_determinism():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=4, steps=5)
    run = lambda s: gd.expand_seed_latent_flow(
        data.images[1], codec, embedder, head, cfg, s
    )
    images_a, columns_a, _ = run(_stream("lat-flow"))
    images_b, columns_b, _ = run(_stream("lat-flow"))
    images_c, _, _ = run(_stream("lat-flow-alt"))
    assert len(images_a) == 4
    for a, b in zip(images_a, images_b):
        assert np.array_equal(a.pixels, b.pixels)
    assert any(
        not np.array_equal(a.pixels, c.pixels) for a, c in zip(images_a, images_c)
    )
    for key, column in columns_a.items():
        assert np.array_equal(column, columns_b[key])
    assert columns_a["consistent"].all()
    # the consistency contract holds in the emitted image domain
    recon, _ = codec.decode_with_mask(codec.encode(data.images[1]).flat())
    target = head.predict_rows(embedder.embed_flat(recon)).argmax()
    for img in images_a:
        assert head.predict_rows(embedder.embed(img)).argmax() == target


def test_latent_flow_epsilon_zero_bit_identical():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(epsilon=0.0, ratio_k=2, steps=3)
    images, columns, _ = gd.expand_seed_latent_flow(
        data.images[2], codec, embedder, head, cfg, _stream("lat0")
    )
    reference = codec.decode(codec.encode(data.images[2]))
    for img in images:
        assert np.array_equal(img.pixels, reference.pixels)
    assert columns["consistent"].all()


class _HostilePath:
    """Rejects every latent except the exact seed: exercises the fallback.
    The seed of each of its groups predicts class 0."""

    def __init__(self, seed_values, groups=1):
        self.seed_values = seed_values
        self.seed_probs = np.tile([0.9, 0.1], (groups, 1))
        self.target = np.zeros(groups, dtype=int)

    def select(self, groups):
        return self

    def __call__(self, values):
        at_seed = np.all(values == self.seed_values, axis=(2, 3))
        probs = np.where(at_seed[..., None], [0.9, 0.1], [0.1, 0.9])
        return np.full(len(values), 0.5), np.zeros_like(values), probs


def _fresh_noise(stream, shape, mode):
    """A variant's (z, b) from its own fresh generator: a tied mode draws one
    value per channel or per token and broadcasts it."""
    t, d = shape
    draw = {"channel": (1, d), "token": (t, 1)}.get(mode, (t, d))
    gen = stream.generator()
    z, b = gen.uniform(0.0, 1.0, draw), gen.standard_normal(draw)
    return np.broadcast_to(z, shape), np.broadcast_to(b, shape)


@pytest.mark.parametrize("mode", lm.NOISE_MODES)
def test_block_noise_is_each_variants_own_fresh_draw(monkeypatch, mode):
    # every variant is rejected, so each retry round redraws all G * K of them
    calls = []
    ascend = gd.optimize_guidance

    def spy(seeds, score_fn, params, config):
        calls.append(tuple(p.copy() for p in params))
        return ascend(seeds, score_fn, params, config)

    monkeypatch.setattr(gd, "optimize_guidance", spy)
    g, k, shape = 3, 2, (2, 4)
    seed_values = np.linspace(-1.0, 1.0, 8).reshape(shape)
    streams = [_stream("block-noise", mode, j) for j in range(g)]
    cfg = pl.ExpansionConfig(epsilon=0.5, ratio_k=k, steps=1, retries=2, noise_mode=mode)
    gd._expand_with_chain(_HostilePath(seed_values, g), np.stack([seed_values] * g), cfg, streams)
    assert len(calls) == 1 + cfg.retries
    (z0, b0), retries = calls[0], calls[1:]
    assert z0.shape == b0.shape == (g, k) + shape
    for j, stream in enumerate(streams):
        for i in range(k):
            want = _fresh_noise(stream.child("variant", i, "init"), shape, mode)
            assert [z0[j, i].tobytes(), b0[j, i].tobytes()] == [w.tobytes() for w in want]
            for r, (z, b) in enumerate(retries, start=1):
                assert z.shape == b.shape == (g * k, 1) + shape
                want = _fresh_noise(stream.child("variant", i, "retry", r), shape, mode)
                got = [z[j * k + i, 0].tobytes(), b[j * k + i, 0].tobytes()]
                assert got == [w.tobytes() for w in want]
        # the one-seed draw is the same block's row
        z, b = gd.init_perturbations(shape, k, mode, stream)
        assert [z.tobytes(), b.tobytes()] == [z0[j].tobytes(), b0[j].tobytes()]
    with pytest.raises(ParameterError):
        gd.init_perturbations(shape, 2.0, mode, streams[0])
    with pytest.raises(ParameterError):
        gd.init_perturbations(shape, k, "pixel", streams[0])


def test_fallback_after_exhausted_retries():
    seed_values = np.linspace(-1.0, 1.0, 8).reshape(2, 4)
    path = _HostilePath(seed_values)
    stream = _stream("fallback")
    for steps in (0, 2):
        cfg = pl.ExpansionConfig(epsilon=0.5, ratio_k=3, steps=steps, retries=2, noise_mode="full")
        emitted, columns, trace = gd._expand_with_chain(
            path, seed_values[None], cfg, [stream]
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
        s_div_initial = columns["scores_initial"][0, :, 2]
        for v, s_div in zip(initial, s_div_initial):
            assert s_div == lm.kl_divergence(lm.softmax(v.values.ravel()), r)
            assert s_div > 0
        for lat in emitted[0]:
            assert np.array_equal(lat, seed_values)
        assert columns["fallback"][0].all()
        assert (columns["retry_count"][0] == cfg.retries + 1).all()
        assert columns["consistent"][0].all()
        # identical emitted latents: diversity is zero up to mean rounding
        assert (abs(columns["scores_final"][0, :, 2]) < 1e-12).all()


def test_record_stream_ids_name_the_variant():
    data, codec, embedder, head = _setup()
    cfg = pl.ExpansionConfig(ratio_k=2, steps=1)
    seeds = data.subset([0, 30, 60])
    bundle = pl.BackendBundle(codec=codec, embedder=embedder, head=head)
    _, manifest = pl.expand_dataset(seeds, "gif_embed", cfg, bundle, global_seed=3)
    keys = [pl.seed_content_key(record) for record in seeds.records]
    for rec in manifest.records:
        stream = RngStream.root(3).child("method", "gif_embed", "seed", keys[rec["seed_index"]])
        assert rec["stream_id"] == stream.child("variant", rec["variant_index"]).id
        assert rec["qualified"]
    assert [rec["seed_index"] for rec in manifest.records] == [0, 0, 1, 1, 2, 2]
