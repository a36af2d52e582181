"""Guided expansion of seeds: perturb, score, ascend, filter.

Two flows share one ascent engine and one scoring chain: latent -> lift ->
embedding -> cosine head, plus diversity over the latents. Both take the
same backends (codec, embedder, head). The embedding flow perturbs the
seed's scoring embedding directly (identity lift) and decodes all emitted
embeddings at the end as one stack: the embedder's orthonormal transpose
into pixel space, then a codec round trip (LinearCodec.encode_flat,
decode_with_mask). The latent flow perturbs the codec latent, and its lift
decodes an intermediate image and embeds it for every scoring evaluation.
Both enforce prediction consistency with retries and a fallback to the
unperturbed seed reconstruction, so every emitted variant keeps the seed's
predicted class.

Both flows take their knobs from the one pipeline.ExpansionConfig. The flow
fills in an epsilon or noise_mode left None from FLOW_DEFAULTS (flow_config),
so each default is written once.

The engine ascends a block of G seeds with K variants each as one
(G, K, T, D) stack of rows; the per-seed flows are its G = 1 case. Each
variant's init and retry noise comes from its own stream, and a block's
draws go through one re-keyed generator (rng.rekeyed). A seed's
variants are bit-identical whatever block it shares, because every stacked
kernel rounds exactly as its one-vector form (checked on numpy 2.4 with
OpenBLAS). Nothing in the code shows these conditions. Breaking one moves
last bits of the ascent, which may leave the digests as they are on one
input and flip a retry or a digest on another;
test_row_kernels_are_bit_equal_to_per_vector_calls checks them:

- a matrix-vector product is np.matmul(A, X[..., None])[..., 0]
  (latentmath.matvec), one gemv per row; X @ A.T is a gemm and rounds
  differently for every K >= 2
- a vector norm is the square root of a stacked row dot, as
  np.linalg.norm computes it for one vector, not np.linalg.norm(X, axis=-1)
- row max and sum run along the last axis, a group's mean and sum along
  the K axis

The row kernels take finite input. Each ascent step checks twice, raising
NumericDivergenceError with the step: the noise z and b at its top, which
keeps every value within epsilon of a finite seed, then the objective total,
which a non-finite seed turns nan. That total sums over K with numpy and
feeds only the trace and this check, so its rounding is free.

Each flow returns the manifest's record columns (pipeline._COLUMN_TYPES),
as augment.expand_block does: the (s_con, s_ent, s_div) scores of the
first evaluated and of the emitted variants as scores_initial and
scores_final, (G, K, 3) each; consistent and qualified (always true),
retry_count and fallback, (G, K) each; and stream_id, (G, K) lists of the
variant streams' ids, child("variant", i) of each seed stream, from which
its init and retry noise streams descend. Each score term has one formula, in
latentmath: s_con and entropy gain come from consistency_entropy_rows and
s_div from diversity_terms_rows, each variant's clamped term of the
diversity_rows sum the ascent raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import latentmath as lm
from .backends import Embedder, Image, LinearCodec, ZeroShotHead
from .errors import NumericDivergenceError, ShapeError, check_count
from .rng import RngStream, rekeyed

if TYPE_CHECKING:
    from .pipeline import ExpansionConfig


# each guided flow's L-inf ball radius and noise tying, for the config
# fields left None
FLOW_DEFAULTS = {
    "gif_embed": dict(epsilon=0.1, noise_mode="full"),
    "gif_latent": dict(epsilon=5.0, noise_mode="channel"),
}


def flow_config(config: ExpansionConfig, flow: str) -> ExpansionConfig:
    """config with each field it leaves None taken from flow's FLOW_DEFAULTS."""
    defaults = FLOW_DEFAULTS[flow]
    return replace(config, **{k: v for k, v in defaults.items() if getattr(config, k) is None})


@dataclass(eq=False)
class OptimizationTrace:
    """One entry per evaluation (steps + 1): the (G,) objective of every seed
    group and the (G, K, C) variant class probabilities; initial holds the
    first evaluation's projected variants. The flows read the probabilities
    and initial for the score columns; the objective is what the ascent raises."""

    objective: list = field(default_factory=list)
    probs: list = field(default_factory=list)
    initial: np.ndarray | None = None

    def group(self, g: int) -> "OptimizationTrace":
        """The trace of seed group g alone: floats and (K, C) probabilities."""
        return OptimizationTrace(
            [float(e[g]) for e in self.objective], [p[g] for p in self.probs], self.initial[g]
        )

    def __len__(self) -> int:
        return len(self.objective)


def _noise(streams, lead: tuple, shape: tuple, noise_mode: str):
    """One uniform/Gaussian (z, b) draw per stream, in order, into two lead + (T, D)
    arrays; tied modes draw one value per channel (constant along tokens) or per token."""
    t, d = shape
    draw = {"channel": (1, d), "token": (t, 1)}.get(noise_mode, (t, d))
    z, b = np.empty((2, *lead, t, d))
    for zi, bi, gen in zip(z.reshape(-1, t, d), b.reshape(-1, t, d), rekeyed(streams)):
        zi[...] = gen.uniform(0.0, 1.0, draw)
        bi[...] = gen.standard_normal(draw)
    return z, b


def _init_noise(rng_streams: list, k: int, shape: tuple, noise_mode: str):
    """The K variant streams of each seed stream, as (G, K) lists, and
    their (G, K, T, D) init (z, b)."""
    subs = [[s.child("variant", i) for i in range(k)] for s in rng_streams]
    inits = [sub.child("init") for row in subs for sub in row]
    return subs, _noise(inits, (len(rng_streams), k), shape, noise_mode)


def init_perturbations(shape: tuple, k: int, noise_mode: str, rng_stream: RngStream):
    """One independent uniform/Gaussian noise draw per variant: (z, b), each (k, T, D)."""
    check_count("k", k, 1)
    lm.check_noise_mode(noise_mode)
    _, (z, b) = _init_noise([rng_stream], k, shape, noise_mode)
    return z[0], b[0]


# the token axis sums a channel-tied noise gradient, the channel axis a token-tied one
_TIED_AXIS = {"channel": -2, "token": -1}


def optimize_guidance(seeds: np.ndarray, score_fn, params: tuple, config: ExpansionConfig):
    """Projected gradient ascent of G seed groups of K variants, as one stack.

    seeds is (G, T, D) and params is (z, b), each (G, K, T, D). score_fn maps
    the (G, K, T, D) projected variants to (total, grads, probs): total is
    the (G,) objective of the groups, grads[g, i] the gradient of group g's
    total with respect to variant i's values and probs[g, i] its class
    probabilities; total and probs are kept in the trace.
    The clamp uses a straight-through backward: z and b receive the
    unprojected chain-rule gradient and the projection is re-applied on
    every forward pass. Returns the last projected variants and the trace.
    """
    z, b = params
    if z.shape != b.shape or z.ndim != 4 or z.shape[:1] + z.shape[2:] != seeds.shape:
        raise ShapeError(f"noise shapes {z.shape} and {b.shape} do not fit seeds {seeds.shape}")
    seeds = seeds[:, None]
    axis = _TIED_AXIS.get(config.noise_mode)
    trace = OptimizationTrace()
    # noise or an objective that overflows or turns nan is flagged with the
    # step it reaches, so numpy's warnings on the way add nothing
    with np.errstate(invalid="ignore", over="ignore"):
        bounds = lm.projection_bounds(seeds, config.epsilon)
        for step in range(config.steps + 1):
            if not (np.isfinite(z).all() and np.isfinite(b).all()):
                raise NumericDivergenceError(f"non-finite values at step {step}")
            values = lm.perturb_and_project_rows(seeds, z, b, config.epsilon, bounds)
            total, grads, probs = score_fn(values)
            if not np.isfinite(total).all():
                raise NumericDivergenceError(f"objective non-finite at step {step}")
            if step == 0:
                # a copy: at steps 0 values is also returned, and callers write
                # retried and fallback variants into it
                trace.initial = values.copy()
            trace.objective.append(total)
            trace.probs.append(probs)
            if step == config.steps:
                break
            gz, gb = grads * seeds, grads
            if axis is not None:
                # a shared noise value's gradient is the sum over its tied entries
                gz, gb = gz.sum(axis=axis, keepdims=True), gb.sum(axis=axis, keepdims=True)
            z = z + config.step_size * gz
            b = b + config.step_size * gb
    return values, trace


def identity_lift(flat: np.ndarray):
    """Embedding flow lift: the variant already is the scoring embedding."""
    return flat, lambda g: g


def decode_lift(codec: LinearCodec, embedder: Embedder):
    """Latent flow lift: decode an intermediate image, then embed it."""

    def lift(flat: np.ndarray):
        pixels, mask = codec.decode_with_mask(flat)
        # chain through embed (linear) and the decode pixel clamp (masked)
        pullback = lambda g: lm.matvec(codec.basis, lm.matvec(embedder.projection.T, g) * mask)
        return embedder.embed_flat(pixels), pullback

    return lift


class ScoreChain:
    """Scores stacked latents: lift to embeddings, classify by cosine, add diversity.

    seed_probs is (G, C), the seed prediction of each group. lift maps flat
    latents (G, K, n) to (embeddings, pullback), where pullback carries
    embedding gradients back to the latents; diversity needs no lift. A call
    on (G, K, T, D) variants returns (total, grads, probs): total is each
    group's lm.weighted_total of its terms summed over the variants, and
    probs[g, i] is head.predict of variant i's lifted embedding, a softmax
    row and so on the simplex.
    """

    def __init__(self, head: ZeroShotHead, weights: tuple, seed_probs: np.ndarray,
                 lift=identity_lift):
        self.head = head
        self.weights = weights
        self.seed_probs = seed_probs
        self.target = np.argmax(seed_probs, axis=-1)
        self.lift = lift

    def select(self, groups: np.ndarray) -> "ScoreChain":
        """The chain of the given seed groups, in that order."""
        return ScoreChain(self.head, self.weights, self.seed_probs[groups], self.lift)

    def __call__(self, values: np.ndarray):
        w_con, w_ent, w_div = self.weights
        flat = values.reshape(*values.shape[:2], -1)
        embedding, pullback = self.lift(flat)
        _, probs, jac = lm.classify_rows(embedding, self.head.prototypes, self.head.tau)
        target = self.target[:, None]
        g_e = lm.consistency_entropy_grad_rows(probs, jac, self.head.tau, target, w_con, w_ent)
        s_div, div_grads = lm.diversity_rows(flat)
        grads = (pullback(g_e) + w_div * div_grads).reshape(values.shape)
        p_t, gains = lm.consistency_entropy_rows(probs, self.seed_probs)
        total = lm.weighted_total(p_t.sum(axis=-1), gains.sum(axis=-1), s_div, self.weights)
        return total, grads, probs


def _expand_with_chain(chain, seeds: np.ndarray, config: ExpansionConfig, rng_streams: list):
    """Joint ascent of every seed's K variants, then consistency retries and
    a fallback to the seed.

    seeds is (G, T, D), rng_streams one stream per seed, and the chain's
    seed_probs are the seeds'. Each retry round ascends every variant still
    off its seed's class as its own one-variant group, drawn from the
    variant's ("retry", round) stream; a one-variant group's diversity term
    is zero, so the round equals per-variant retries run one after another.
    Probabilities come from the traces: the first evaluation for the
    initial scores, the last for emitted variants; a fallback takes the
    seed's own. Returns the (G, K, T, D) emitted variants, the record
    columns of the module docstring, and the trace.
    """
    k = config.ratio_k
    shape = seeds.shape[1:]
    subs, params = _init_noise(rng_streams, k, shape, config.noise_mode)
    emitted, trace = optimize_guidance(seeds, chain, params, config)
    probs = trace.probs[-1].copy()
    seed_probs, target = chain.seed_probs, chain.target[:, None]
    retry_counts = np.zeros(probs.shape[:2], np.int64)
    for r in range(1, config.retries + 1):
        groups, variants = np.nonzero(probs.argmax(axis=-1) != target)
        if groups.size == 0:
            break
        retry = [subs[g][i].child("retry", r) for g, i in zip(groups, variants)]
        single, single_trace = optimize_guidance(
            seeds[groups], chain.select(groups),
            _noise(retry, (groups.size, 1), shape, config.noise_mode), config
        )
        emitted[groups, variants] = single[:, 0]
        probs[groups, variants] = single_trace.probs[-1][:, 0]
        retry_counts[groups, variants] = r
    fallbacks = probs.argmax(axis=-1) != target
    groups, variants = np.nonzero(fallbacks)
    emitted[groups, variants] = seeds[groups]
    probs[groups, variants] = seed_probs[groups]
    retry_counts[fallbacks] += 1
    # (s_con, s_ent, s_div) of the step-0 and of the emitted variants, (G, K, 3)
    initial, final = (
        np.stack((*lm.consistency_entropy_rows(p, seed_probs),
                  lm.diversity_terms_rows(v.reshape(len(v), k, -1))), axis=-1)
        for p, v in ((trace.probs[0], trace.initial), (probs, emitted))
    )
    # a fallback takes its seed's probabilities, so every variant is consistent
    columns = dict(scores_initial=initial, scores_final=final, consistent=np.ones_like(fallbacks),
                   qualified=np.ones_like(fallbacks), retry_count=retry_counts,
                   fallback=fallbacks, stream_id=[[s.id for s in row] for row in subs])
    return emitted, columns, trace


def expand_embedding_block(
    seed_pixels: np.ndarray,
    codec: LinearCodec,
    embedder: Embedder,
    head: ZeroShotHead,
    config: ExpansionConfig,
    rng_streams: list,
):
    """Optimize K perturbed copies of each seed's embedding in one stack, then
    decode them as one stack: through the embedder's orthonormal transpose
    into pixel space, then a codec round trip to stay on the image manifold.
    seed_pixels is (G, H, W, C); returns the (G, K, H, W, C) float32 variant
    pixels, their record columns and the trace. config fields left None
    take their gif_embed FLOW_DEFAULTS."""
    config = flow_config(config, "gif_embed")
    e0 = embedder.embed_images(seed_pixels)
    chain = ScoreChain(head, config.weights, head.predict_rows(e0))
    emitted, columns, trace = _expand_with_chain(chain, e0[:, None, :], config, rng_streams)
    pixels = lm.matvec(embedder.projection.T, emitted.reshape(emitted.shape[:2] + (-1,))) + 0.5
    return _decoded(codec, codec.encode_flat(pixels)), columns, trace


def expand_latent_block(
    seed_pixels: np.ndarray,
    codec: LinearCodec,
    embedder: Embedder,
    head: ZeroShotHead,
    config: ExpansionConfig,
    rng_streams: list,
):
    """Optimize K perturbed codec latents of each seed in one stack, scoring
    decoded intermediates. seed_pixels is (G, H, W, C); returns the
    (G, K, H, W, C) float32 variant pixels, their record columns and the
    trace. config fields left None take their gif_latent FLOW_DEFAULTS."""
    config = flow_config(config, "gif_latent")
    if seed_pixels.shape[1:] != codec.image_shape:
        raise ShapeError(f"image shape {seed_pixels.shape[1:]} vs codec {codec.image_shape}")
    # one gemv per row: each seed's latent as codec.encode gives it
    f0 = codec.encode_flat(seed_pixels.reshape(len(seed_pixels), -1))
    # the reference prediction goes through the same decode/embed path the
    # variants use, so the seed fallback is consistent by construction
    recon_pixels, _ = codec.decode_with_mask(f0)
    seed_probs = head.predict_rows(embedder.embed_flat(recon_pixels))
    chain = ScoreChain(head, config.weights, seed_probs, decode_lift(codec, embedder))
    emitted, columns, trace = _expand_with_chain(
        chain, f0.reshape((len(f0),) + codec.latent_shape), config, rng_streams
    )
    return _decoded(codec, emitted.reshape(emitted.shape[:2] + (-1,))), columns, trace


def _decoded(codec: LinearCodec, flat_latents: np.ndarray) -> np.ndarray:
    """The (G, K, H, W, C) float32 pixels of (G, K, latent_dim) flat latents."""
    pixels, _ = codec.decode_with_mask(flat_latents)
    return pixels.reshape(flat_latents.shape[:2] + codec.image_shape).astype(np.float32)


def _seed_flow(block, seed: Image, codec, embedder, head, config, rng_stream):
    """block at G = 1: the seed's K variant Images, its (K,) columns and its trace."""
    pixels, columns, trace = block(seed.pixels[None], codec, embedder, head, config, [rng_stream])
    return [Image(p) for p in pixels[0]], {k: c[0] for k, c in columns.items()}, trace.group(0)


def expand_seed_embedding_flow(seed_image: Image, codec: LinearCodec, embedder: Embedder,
                               head: ZeroShotHead, config: ExpansionConfig, rng_stream: RngStream):
    """Optimize K perturbed copies of the seed's embedding, then decode them."""
    return _seed_flow(expand_embedding_block, seed_image, codec, embedder, head, config, rng_stream)


def expand_seed_latent_flow(seed_image: Image, codec: LinearCodec, embedder: Embedder,
                            head: ZeroShotHead, config: ExpansionConfig, rng_stream: RngStream):
    """Optimize K perturbed codec latents, scoring decoded intermediates."""
    return _seed_flow(expand_latent_block, seed_image, codec, embedder, head, config, rng_stream)
