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
(G, K, T, D) stack of rows; the per-seed flows are its G = 1 case. A seed's
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
- each group's s_con, s_ent and s_div totals add over K in variant order
- a sum masked to p > 0 stays masked for every row with a zero entry

The module also owns the manifest record layout: a record is the plain
dict the manifest stores, laid out by _RECORD_TYPES, checked by
check_record and made for every method by the one builder, _records. The
guided flows fill it from their traces; every baseline, plain or
selective, fills it through selected_records from the scores that
augment.score_candidates measured. Each score term has one formula, in
latentmath: a record's s_con and entropy gain come from
consistency_entropy_rows and its s_div from diversity_terms_rows, each
variant's clamped term of the diversity_rows sum the ascent raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from . import latentmath as lm
from .backends import Embedder, Image, LinearCodec, ZeroShotHead
from .errors import (InputError, NumericDivergenceError, NumericInputError, ParameterError,
                     ShapeError, check_count)
from .rng import RngStream

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
    and initial for the records; the objective is what the ascent raises."""

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


# a record's keys and value types, in the order _records fills them: one
# record per emitted variant, scores_initial and scores_final laid out as
# _SCORE_TYPES
_RECORD_TYPES = {
    "seed_index": int,
    "variant_index": int,
    "method": str,
    "stream_id": str,
    "scores_initial": dict,
    "scores_final": dict,
    "consistent": bool,
    "retry_count": int,
    "fallback": bool,
    "qualified": bool,
}
_SCORE_TYPES = {"s_con": float, "s_ent": float, "s_div": float, "total": float, "weights": list}


def check_record(data, what: str) -> None:
    """Raise InputError unless data has the layout and types of a record."""
    check_json_types(what, data, _RECORD_TYPES)
    for key in ("scores_initial", "scores_final"):
        scores = data[key]
        check_json_types(f"{what} {key}", scores, _SCORE_TYPES)
        weights = scores["weights"]
        if len(weights) != 3 or not all(_has_type(w, float) for w in weights):
            raise InputError(f"{what} {key} weights must be three finite reals")


def _has_type(value, kind) -> bool:
    # a bool is never a number here, though Python counts it as an int
    if isinstance(value, (bool, np.bool_)) or kind is bool:
        return kind is bool and isinstance(value, (bool, np.bool_))
    if isinstance(value, (int, np.integer)):
        return kind in (int, float)
    if kind is float:
        return isinstance(value, (float, np.floating)) and math.isfinite(value)
    return isinstance(value, kind)


def check_json_types(what: str, data, types: dict) -> None:
    """Raise InputError unless data is a dict with exactly the keys of types,
    each value of its type; float means a finite real and admits ints."""
    if not isinstance(data, dict):
        raise InputError(f"{what} must be an object, got {type(data).__name__}")
    if data.keys() != types.keys():
        raise InputError(f"{what} has keys {sorted(data)}, expected {sorted(types)}")
    for key, kind in types.items():
        value = data[key]
        # exact types first, as every manifest this package writes has them;
        # type(True) is bool, not int
        if type(value) is kind and (kind is not float or math.isfinite(value)):
            continue
        if not _has_type(value, kind):
            raise InputError(f"{what} field {key!r} must be {kind.__name__}, got {value!r}")


def _draw_params(shape: tuple, noise_mode: str, gen: np.random.Generator):
    """One (z, b) noise draw, each broadcast to shape; tied modes draw one
    value per channel (constant along tokens) or per token."""
    t, d = shape
    draw = {"channel": (1, d), "token": (t, 1)}.get(noise_mode, (t, d))
    z = gen.uniform(0.0, 1.0, draw)
    b = gen.standard_normal(draw)
    return np.broadcast_to(z, shape), np.broadcast_to(b, shape)


def init_perturbations(shape: tuple, k: int, noise_mode: str, rng_stream: RngStream):
    """One independent uniform/Gaussian noise draw per variant: (z, b), each (k, T, D)."""
    check_count("k", k, 1)
    if noise_mode not in lm.NOISE_MODES:
        raise ParameterError(f"noise_mode must be one of {lm.NOISE_MODES}, got {noise_mode!r}")
    return _stacked([
        _draw_params(shape, noise_mode, rng_stream.child("variant", i, "init").generator())
        for i in range(k)
    ])


def _stacked(draws: list):
    """A list of (z, b) pairs as one (z, b) pair with a leading axis."""
    return np.stack([z for z, _ in draws]), np.stack([b for _, b in draws])


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
    for step in range(config.steps + 1):
        values = lm.perturb_and_project_rows(seeds, z, b, config.epsilon)
        if not np.isfinite(values).all():
            raise NumericDivergenceError(f"non-finite variant values at step {step}")
        try:
            total, grads, probs = score_fn(values)
        except NumericInputError as err:
            raise NumericDivergenceError(f"non-finite values at step {step}: {err}") from err
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
        # a non-finite update is flagged here with the step whose evaluation
        # it would have fed, so the nan warnings numpy would raise carry no
        # extra information
        with np.errstate(invalid="ignore", over="ignore"):
            gz, gb = grads * seeds, grads
            if axis is not None:
                # a shared noise value's gradient is the sum over its tied entries
                gz, gb = gz.sum(axis=axis, keepdims=True), gb.sum(axis=axis, keepdims=True)
            z = z + config.step_size * gz
            b = b + config.step_size * gb
        if not (np.isfinite(z).all() and np.isfinite(b).all()):
            raise NumericDivergenceError(f"non-finite values at step {step + 1}")
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
        g, k = values.shape[:2]
        flat = values.reshape(g, k, -1)
        embedding, pullback = self.lift(flat)
        _, probs, jac = lm.classify_rows(embedding, self.head.prototypes, self.head.tau)
        target = self.target[:, None]
        g_e = lm.consistency_entropy_grad_rows(probs, jac, self.head.tau, target, w_con, w_ent)
        s_div, div_grads = lm.diversity_rows(flat)
        grads = (pullback(g_e) + w_div * div_grads).reshape(values.shape)
        p_t, gains = lm.consistency_entropy_rows(probs, self.seed_probs)
        s_con = s_ent = np.zeros(g)
        for i in range(k):  # in variant order, as the per-seed sums ran
            s_con = s_con + p_t[:, i]
            s_ent = s_ent + gains[:, i]
        return lm.weighted_total(s_con, s_ent, s_div, self.weights), grads, probs


def _records(method, weights, stream_ids, initial, final, consistent, retry_counts,
             fallbacks, qualified):
    """The one record builder: variant i's record from the i-th entry of each
    column. initial and final are the (s_con, s_ent, s_div) score columns,
    (K,) each, of the first evaluated and of the emitted variants; the other
    columns are lists. seed_index stays -1 until the pipeline fills it in."""
    k = len(stream_ids)
    scores = []
    for terms in (initial, final):
        s_con, s_ent, s_div = (np.asarray(t, dtype=float) for t in terms)
        total = lm.weighted_total(s_con, s_ent, s_div, weights)
        rows = zip(s_con.tolist(), s_ent.tolist(), s_div.tolist(), total.tolist())
        scores.append([dict(zip(_SCORE_TYPES, (*row, list(weights)))) for row in rows])
    columns = ([-1] * k, range(k), [method] * k, stream_ids, *scores,
               consistent, retry_counts, fallbacks, qualified)
    return [dict(zip(_RECORD_TYPES, row)) for row in zip(*columns)]


def selected_records(selected, method, weights):
    """Records for a baseline's variants, from the augment.SelectionRecords
    that augment.score_candidates measured for them: nothing is embedded
    again. Every baseline, plain or selective, takes its records from here."""
    terms = ([sel.s_con for sel in selected], [sel.entropy_gain for sel in selected],
             lm.diversity_terms_rows(np.stack([sel.embedding for sel in selected])))
    k = len(selected)
    return _records(method, weights, [sel.stream_id for sel in selected], terms, terms,
                    [sel.consistent for sel in selected], [0] * k, [False] * k,
                    [sel.qualified for sel in selected])


def _expand_with_chain(
    chain,
    seeds: np.ndarray,
    seed_probs: np.ndarray,
    method: str,
    config: ExpansionConfig,
    rng_streams: list,
):
    """Joint ascent of every seed's K variants, then consistency retries and
    a fallback to the seed.

    seeds is (G, T, D), seed_probs (G, C) and rng_streams one stream per
    seed. Each retry round ascends every variant that is still off the
    seed's class as its own one-variant group, drawn from the variant's
    ("retry", round) stream; a one-variant group's diversity term is zero,
    so the round equals per-variant retries run one after another.
    Probabilities come from the traces: the first evaluation for the
    initial scores, the last for emitted variants; a fallback takes the
    seed's own. Returns the (G, K, T, D) emitted variants, one record list
    per seed, and the trace.
    """
    k = config.ratio_k
    shape = seeds.shape[1:]
    params = _stacked([init_perturbations(shape, k, config.noise_mode, s) for s in rng_streams])
    emitted, trace = optimize_guidance(seeds, chain, params, config)
    probs = trace.probs[-1].copy()
    target = np.argmax(seed_probs, axis=-1)[:, None]
    retry_counts = np.zeros(probs.shape[:2], dtype=int)
    for r in range(1, config.retries + 1):
        groups, variants = np.nonzero(probs.argmax(axis=-1) != target)
        if groups.size == 0:
            break
        z, b = _stacked([
            _draw_params(shape, config.noise_mode,
                         rng_streams[g].child("variant", int(i), "retry", r).generator())
            for g, i in zip(groups, variants)
        ])
        single, single_trace = optimize_guidance(
            seeds[groups], chain.select(groups), (z[:, None], b[:, None]), config
        )
        emitted[groups, variants] = single[:, 0]
        probs[groups, variants] = single_trace.probs[-1][:, 0]
        retry_counts[groups, variants] = r
    fallbacks = probs.argmax(axis=-1) != target
    groups, variants = np.nonzero(fallbacks)
    emitted[groups, variants] = seeds[groups]
    probs[groups, variants] = seed_probs[groups]
    retry_counts[fallbacks] += 1
    consistent = probs.argmax(axis=-1) == target
    # (s_con, s_ent, s_div) of the step-0 and of the emitted variants, (G, K) each
    initial, final = (
        (*lm.consistency_entropy_rows(p, seed_probs),
         lm.diversity_terms_rows(v.reshape(len(v), k, -1)))
        for p, v in ((trace.probs[0], trace.initial), (probs, emitted))
    )
    records = [
        _records(method, config.weights, [stream.child("variant", i).id for i in range(k)],
                 [t[g] for t in initial], [t[g] for t in final], consistent[g].tolist(),
                 retry_counts[g].tolist(), fallbacks[g].tolist(), [True] * k)
        for g, stream in enumerate(rng_streams)
    ]
    return emitted, records, trace


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
    pixels, one record list per seed, and the trace. config fields left
    None take their gif_embed FLOW_DEFAULTS."""
    config = flow_config(config, "gif_embed")
    e0 = embedder.embed_images(seed_pixels)
    seed_probs = head.predict_rows(e0)
    chain = ScoreChain(head, config.weights, seed_probs)
    emitted, records, trace = _expand_with_chain(
        chain, e0[:, None, :], seed_probs, "gif_embed", config, rng_streams
    )
    pixels = lm.matvec(embedder.projection.T, emitted.reshape(emitted.shape[:2] + (-1,))) + 0.5
    return _decoded(codec, codec.encode_flat(pixels)), records, trace


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
    (G, K, H, W, C) float32 variant pixels, one record list per seed, and
    the trace. config fields left None take their gif_latent FLOW_DEFAULTS."""
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
    emitted, records, trace = _expand_with_chain(
        chain, f0.reshape((len(f0),) + codec.latent_shape), seed_probs, "gif_latent", config,
        rng_streams,
    )
    return _decoded(codec, emitted.reshape(emitted.shape[:2] + (-1,))), records, trace


def _decoded(codec: LinearCodec, flat_latents: np.ndarray) -> np.ndarray:
    """The (G, K, H, W, C) float32 pixels of (G, K, latent_dim) flat latents."""
    pixels, _ = codec.decode_with_mask(flat_latents)
    return pixels.reshape(flat_latents.shape[:2] + codec.image_shape).astype(np.float32)


def expand_seed_embedding_flow(
    seed_image: Image,
    codec: LinearCodec,
    embedder: Embedder,
    head: ZeroShotHead,
    config: ExpansionConfig,
    rng_stream: RngStream,
):
    """Optimize K perturbed copies of the seed's embedding, then decode them."""
    (pixels,), (records,), trace = expand_embedding_block(
        seed_image.pixels[None], codec, embedder, head, config, [rng_stream]
    )
    return [Image(p) for p in pixels], records, trace.group(0)


def expand_seed_latent_flow(
    seed_image: Image,
    codec: LinearCodec,
    embedder: Embedder,
    head: ZeroShotHead,
    config: ExpansionConfig,
    rng_stream: RngStream,
):
    """Optimize K perturbed codec latents, scoring decoded intermediates."""
    (pixels,), (records,), trace = expand_latent_block(
        seed_image.pixels[None], codec, embedder, head, config, [rng_stream]
    )
    return [Image(p) for p in pixels], records, trace.group(0)
