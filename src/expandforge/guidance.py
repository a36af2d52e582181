"""Guided expansion of a single seed: perturb, score, ascend, filter.

Two flows share one ascent loop and one scoring chain: latent -> lift ->
embedding -> cosine head, plus diversity over the latents. The embedding
flow perturbs the seed's scoring embedding directly (identity lift) and
decodes once at the end; the latent flow perturbs the codec latent, and its
lift decodes an intermediate image and embeds it for every scoring
evaluation. Both enforce prediction consistency with retries and a fallback
to the unperturbed seed reconstruction, so every emitted variant keeps the
seed's predicted class.

The module also owns the manifest record layout: VariantRecord, its type
check, and the one builder that makes the records of every method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import latentmath as lm
from .backends import EmbeddingDecoder, Embedder, Image, LinearCodec, ZeroShotHead
from .errors import InputError, NumericDivergenceError, NumericInputError, ParameterError
from .rng import RngStream


@dataclass(eq=False)
class GuidanceConfig:
    """Knobs for one guided expansion run."""

    epsilon: float
    ratio_k: int = 5
    steps: int = 10
    step_size: float = 0.1
    weights: tuple = (1.0, 1.0, 1.0)
    noise_mode: str = "full"
    retries: int = 2

    def __post_init__(self):
        if not (self.epsilon >= 0):
            raise ParameterError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.ratio_k < 1:
            raise ParameterError(f"ratio_k must be >= 1, got {self.ratio_k}")
        if self.steps < 0:
            raise ParameterError(f"steps must be >= 0, got {self.steps}")
        if not (self.step_size > 0):
            raise ParameterError(f"step_size must be > 0, got {self.step_size}")
        if self.retries < 0:
            raise ParameterError(f"retries must be >= 0, got {self.retries}")
        if self.noise_mode not in lm.NOISE_MODES:
            raise ParameterError(
                f"noise_mode must be one of {lm.NOISE_MODES}, got {self.noise_mode!r}"
            )
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or any(not math.isfinite(x) or x < 0 for x in w):
            raise ParameterError(f"weights must be three nonnegative reals, got {self.weights}")
        self.weights = w

    @classmethod
    def embedding_defaults(cls, **overrides) -> "GuidanceConfig":
        kw = dict(epsilon=0.1, noise_mode="full")
        kw.update(overrides)
        return cls(**kw)

    @classmethod
    def latent_defaults(cls, **overrides) -> "GuidanceConfig":
        kw = dict(epsilon=5.0, noise_mode="channel")
        kw.update(overrides)
        return cls(**kw)


@dataclass(eq=False)
class OptimizationTrace:
    """Scores and the K variant predictions, one entry per evaluation (steps + 1)."""

    objective: list = field(default_factory=list)
    s_con: list = field(default_factory=list)
    s_ent: list = field(default_factory=list)
    s_div: list = field(default_factory=list)
    preds: list = field(default_factory=list)

    def append(self, scores: lm.GuidanceScores, preds: list):
        self.objective.append(scores.total)
        self.s_con.append(scores.s_con)
        self.s_ent.append(scores.s_ent)
        self.s_div.append(scores.s_div)
        self.preds.append(preds)

    def __len__(self) -> int:
        return len(self.objective)


@dataclass(eq=False)
class VariantRecord:
    """Provenance for one emitted synthetic sample."""

    seed_index: int
    variant_index: int
    method: str
    stream_id: str
    scores_initial: lm.GuidanceScores
    scores_final: lm.GuidanceScores
    consistent: bool
    retry_count: int
    fallback: bool = False
    qualified: bool = True

    def as_dict(self) -> dict:
        return {
            "seed_index": self.seed_index,
            "variant_index": self.variant_index,
            "method": self.method,
            "stream_id": self.stream_id,
            "scores_initial": self.scores_initial.as_dict(),
            "scores_final": self.scores_final.as_dict(),
            "consistent": self.consistent,
            "retry_count": self.retry_count,
            "fallback": self.fallback,
            "qualified": self.qualified,
        }

    @staticmethod
    def check_dict(data, what: str) -> None:
        """Raise InputError unless data has the layout and types of as_dict()."""
        check_json_types(what, data, _RECORD_TYPES)
        for key in ("scores_initial", "scores_final"):
            scores = data[key]
            check_json_types(f"{what} {key}", scores, _SCORE_TYPES)
            weights = scores["weights"]
            if len(weights) != 3 or not all(_has_type(w, float) for w in weights):
                raise InputError(f"{what} {key} weights must be three finite reals")


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


def _draw_params(shape: tuple, noise_mode: str, gen: np.random.Generator) -> lm.PerturbationParams:
    t, d = shape
    if noise_mode == "channel":
        z = np.tile(gen.uniform(0.0, 1.0, (1, d)), (t, 1))
        b = np.tile(gen.standard_normal((1, d)), (t, 1))
    elif noise_mode == "token":
        z = np.tile(gen.uniform(0.0, 1.0, (t, 1)), (1, d))
        b = np.tile(gen.standard_normal((t, 1)), (1, d))
    else:
        z = gen.uniform(0.0, 1.0, (t, d))
        b = gen.standard_normal((t, d))
    return lm.PerturbationParams(z=z, b=b, noise_mode=noise_mode)


def init_perturbations(
    shape: tuple, k: int, noise_mode: str, rng_stream: RngStream
) -> list:
    """One independent uniform/Gaussian noise draw per variant."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if noise_mode not in lm.NOISE_MODES:
        raise ParameterError(f"noise_mode must be one of {lm.NOISE_MODES}, got {noise_mode!r}")
    return [
        _draw_params(shape, noise_mode, rng_stream.child("variant", i, "init").generator())
        for i in range(k)
    ]


def _tie_reduce(grad: np.ndarray, noise_mode: str) -> np.ndarray:
    """Gradient of a shared noise value is the sum over its tied entries."""
    if noise_mode == "channel":
        return np.tile(grad.sum(axis=0, keepdims=True), (grad.shape[0], 1))
    if noise_mode == "token":
        return np.tile(grad.sum(axis=1, keepdims=True), (1, grad.shape[1]))
    return grad


def optimize_guidance(
    seed_latent: lm.Latent,
    score_fn,
    k: int,
    config: GuidanceConfig,
    rng_stream: RngStream,
    initial_params: list | None = None,
):
    """Projected gradient ascent on the guidance objective over K variants.

    score_fn maps the list of K projected latents to (GuidanceScores, grads,
    preds) where grads[i] is the gradient of the weighted total with respect
    to variant i's values and preds[i] its Prediction, kept in the trace. The
    clamp uses a straight-through backward: z and b receive the unprojected
    chain-rule gradient and the projection is re-applied on every forward pass.
    """
    params = initial_params
    if params is None:
        params = init_perturbations(seed_latent.values.shape, k, config.noise_mode, rng_stream)
    if len(params) != k:
        raise ParameterError(f"got {len(params)} parameter sets for k={k}")
    trace = OptimizationTrace()
    variants = []
    for step in range(config.steps + 1):
        try:
            variants = [lm.perturb_and_project(seed_latent, p, config.epsilon) for p in params]
            scores, grads, preds = score_fn(variants)
        except NumericInputError as err:
            raise NumericDivergenceError(f"non-finite values at step {step}: {err}") from err
        if not math.isfinite(scores.total):
            raise NumericDivergenceError(f"objective non-finite at step {step}")
        trace.append(scores, preds)
        if step == config.steps:
            break
        new_params = []
        # a non-finite update is flagged here with the step whose evaluation
        # it would have fed, so the nan warnings numpy would raise carry no
        # extra information
        with np.errstate(invalid="ignore", over="ignore"):
            for p, g in zip(params, grads):
                gz = _tie_reduce(g * seed_latent.values, p.noise_mode)
                gb = _tie_reduce(g, p.noise_mode)
                new_z = p.z + config.step_size * gz
                new_b = p.b + config.step_size * gb
                if not (np.all(np.isfinite(new_z)) and np.all(np.isfinite(new_b))):
                    raise NumericDivergenceError(f"non-finite values at step {step + 1}")
                new_params.append(
                    lm.PerturbationParams(z=new_z, b=new_b, noise_mode=p.noise_mode)
                )
        params = new_params
    return variants, trace


def identity_lift(flat: np.ndarray):
    """Embedding flow lift: the variant already is the scoring embedding."""
    return flat, lambda g: g


def decode_lift(codec: LinearCodec, embedder: Embedder):
    """Latent flow lift: decode an intermediate image, then embed it."""

    def lift(flat: np.ndarray):
        pixels, mask = codec.decode_with_mask(flat)
        # chain through embed (linear) and the decode pixel clamp (masked)
        pullback = lambda g: codec.basis @ ((embedder.projection.T @ g) * mask)
        return embedder.embed_flat(pixels), pullback

    return lift


class ScoreChain:
    """Scores latents: lift to an embedding, classify by cosine, add diversity.

    lift maps a flat latent to (embedding, pullback), where pullback carries
    an embedding gradient back to the latent; diversity needs no lift. A call
    returns (scores, grads, preds), preds[i] being head.predict of variant
    i's lifted embedding.
    """

    def __init__(self, head: ZeroShotHead, weights: tuple, seed_pred: lm.Prediction,
                 lift=identity_lift):
        self.head = head
        self.weights = weights
        self.seed_pred = seed_pred
        self.seed_entropy = lm.entropy(seed_pred.probs)
        self.lift = lift

    def __call__(self, variants):
        w_con, w_ent, w_div = self.weights
        target = self.seed_pred.argmax_class
        s_con = s_ent = 0.0
        grads = []
        preds = []
        for v in variants:
            embedding, pullback = self.lift(v.flat())
            pred, jac = lm.classify_grad(embedding, self.head.prototypes, self.head.tau)
            preds.append(pred)
            s_con += pred.probs[target]
            s_ent += lm.entropy(pred.probs) - self.seed_entropy
            g_e = lm.consistency_entropy_grad(
                pred, jac, self.head.tau, target, w_con, w_ent
            )
            grads.append(pullback(g_e).reshape(v.values.shape))
        s_div, div_grads = lm.diversity_score_grad([v.values for v in variants])
        for i in range(len(variants)):
            grads[i] = grads[i] + w_div * div_grads[i]
        scores = lm.GuidanceScores(s_con=s_con, s_ent=s_ent, s_div=s_div, weights=self.weights)
        return scores, grads, preds


def _per_variant_scores(preds, seed_pred, flats, weights):
    """One GuidanceScores per variant from its prediction and flat values."""
    seed_entropy = lm.entropy(seed_pred.probs)
    r = lm.softmax(np.mean(np.stack(flats, axis=0), axis=0))
    return [
        lm.GuidanceScores(
            s_con=float(pred.probs[seed_pred.argmax_class]),
            s_ent=lm.entropy(pred.probs) - seed_entropy,
            s_div=lm.kl_divergence(lm.softmax(flat), r),
            weights=weights,
        )
        for pred, flat in zip(preds, flats)
    ]


def _records(method, stream_ids, initial, final, consistent, retry_counts, fallbacks, qualified):
    """The one record builder: variant i's record from the i-th entry of each list."""
    columns = zip(stream_ids, initial, final, consistent, retry_counts, fallbacks, qualified)
    # seed_index stays -1 until the pipeline fills in the real index
    return [VariantRecord(-1, i, method, *row) for i, row in enumerate(columns)]


def measured_records(seed_image, images, stream_ids, method, embedder, head, weights):
    """Records for variants generated without guidance: scores measured once.

    A variant qualifies when it keeps the seed's predicted class and gains
    prediction entropy over the seed.
    """
    seed_pred = head.predict(embedder.embed(seed_image))
    embeddings = [embedder.embed(img) for img in images]
    preds = [head.predict(e) for e in embeddings]
    scores = _per_variant_scores(preds, seed_pred, embeddings, weights)
    consistent = [pred.argmax_class == seed_pred.argmax_class for pred in preds]
    qualified = [c and sc.s_ent > 0.0 for c, sc in zip(consistent, scores)]
    k = len(images)
    return _records(method, stream_ids, scores, scores, consistent, [0] * k, [False] * k, qualified)


def _expand_with_chain(
    chain,
    seed_latent: lm.Latent,
    seed_pred: lm.Prediction,
    method: str,
    config: GuidanceConfig,
    rng_stream: RngStream,
):
    """Joint ascent, then per-variant consistency retries and seed fallback.

    Predictions come from the traces: the first evaluation for the initial
    scores, the last for emitted variants; the seed's own is seed_pred.
    """
    k = config.ratio_k
    shape = seed_latent.values.shape
    params = init_perturbations(shape, k, config.noise_mode, rng_stream)
    initial = [lm.perturb_and_project(seed_latent, p, config.epsilon) for p in params]
    emitted, trace = optimize_guidance(
        seed_latent, chain, k, config, rng_stream, initial_params=params
    )
    initial_scores = _per_variant_scores(
        trace.preds[0], seed_pred, [v.flat() for v in initial], config.weights
    )
    preds = list(trace.preds[-1])
    target = seed_pred.argmax_class
    retry_counts = [0] * k
    fallbacks = [False] * k
    for i in range(k):
        variant_stream = rng_stream.child("variant", i)
        while preds[i].argmax_class != target and retry_counts[i] < config.retries:
            retry_counts[i] += 1
            retry_params = _draw_params(
                shape, config.noise_mode,
                variant_stream.child("retry", retry_counts[i]).generator(),
            )
            single, single_trace = optimize_guidance(
                seed_latent, chain, 1, config, variant_stream, initial_params=[retry_params]
            )
            emitted[i], preds[i] = single[0], single_trace.preds[-1][0]
        if preds[i].argmax_class != target:
            emitted[i] = lm.Latent(seed_latent.values.copy())
            preds[i] = seed_pred
            retry_counts[i] += 1
            fallbacks[i] = True
    final_scores = _per_variant_scores(
        preds, seed_pred, [v.flat() for v in emitted], config.weights
    )
    stream_ids = [rng_stream.child("variant", i).id for i in range(k)]
    consistent = [pred.argmax_class == target for pred in preds]
    records = _records(method, stream_ids, initial_scores, final_scores, consistent,
                       retry_counts, fallbacks, [True] * k)
    return emitted, records, trace


def expand_seed_embedding_flow(
    seed_image: Image,
    embedder: Embedder,
    head: ZeroShotHead,
    decoder: EmbeddingDecoder,
    config: GuidanceConfig,
    rng_stream: RngStream,
):
    """Optimize K perturbed copies of the seed's embedding, then decode them."""
    e0 = embedder.embed(seed_image)
    seed_latent = lm.Latent(e0[None, :])
    seed_pred = head.predict(e0)
    chain = ScoreChain(head, config.weights, seed_pred)
    emitted, records, trace = _expand_with_chain(
        chain, seed_latent, seed_pred, "gif_embed", config, rng_stream
    )
    images = [decoder(v.flat()) for v in emitted]
    return images, records, trace


def expand_seed_latent_flow(
    seed_image: Image,
    codec: LinearCodec,
    embedder: Embedder,
    head: ZeroShotHead,
    config: GuidanceConfig,
    rng_stream: RngStream,
):
    """Optimize K perturbed codec latents, scoring decoded intermediates."""
    f0 = codec.encode(seed_image)
    # the reference prediction goes through the same decode/embed path the
    # variants use, so the seed fallback is consistent by construction
    recon_pixels, _ = codec.decode_with_mask(f0.flat())
    seed_pred = head.predict(embedder.embed_flat(recon_pixels))
    chain = ScoreChain(head, config.weights, seed_pred, decode_lift(codec, embedder))
    emitted, records, trace = _expand_with_chain(
        chain, f0, seed_pred, "gif_latent", config, rng_stream
    )
    images = [codec.decode(v) for v in emitted]
    return images, records, trace
