"""Numerical kernel: scoring math, the perturbation step, and the guidance objective.

Everything here is pure array math with no I/O and no randomness. Public entries
take their arrays through `as_finite_array`; the `*_rows` kernels take finite input.
Gradients are hand-derived (no autodiff); `objective_gradient_fd` is their check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (DegenerateVectorError, NumericInputError, ParameterError, ShapeError,
                     SimplexError, check_count, check_real)

SIMPLEX_TOL = 1e-6
KL_FLOOR = 1e-12
NORM_FLOOR = 1e-12

NOISE_MODES = ("full", "channel", "token")


def check_noise_mode(mode) -> None:
    """Raise ParameterError unless mode is one of NOISE_MODES."""
    if mode not in NOISE_MODES:
        raise ParameterError(f"noise_mode must be one of {NOISE_MODES}, got {mode!r}")


def as_finite_array(value, name: str, ndim: int) -> np.ndarray:
    """value as a float64 array of exactly ndim axes, every entry finite, or
    ShapeError or NumericInputError: the one rule for every public array argument."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != ndim:
        raise ShapeError(f"{name} must have {ndim} axes, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericInputError(f"{name} contains non-finite values")
    return arr


def softmax(v, tau: float = 1.0) -> np.ndarray:
    """Temperature softmax of a real vector, stabilized by max subtraction."""
    arr = as_finite_array(v, "softmax input", 1)
    check_real("softmax temperature", tau, 0, open_low=True, finite=False)
    return softmax_rows(arr, tau)


def softmax_rows(x: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """softmax along the last axis of finite x; tau must be > 0."""
    scaled = x / tau
    e = np.exp(scaled - scaled.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ row for every row of x (..., n): one BLAS gemv per row."""
    return np.matmul(a, x[..., None])[..., 0]


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _check_simplex(p: np.ndarray, name: str, tol: float = SIMPLEX_TOL) -> np.ndarray:
    if np.any(p < -1e-12):
        raise SimplexError(f"{name} has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > tol:
        raise SimplexError(f"{name} sums to {total}, expected 1 within {tol}")
    return np.maximum(p, 0.0)


def entropy(p) -> float:
    """Shannon entropy in nats, with 0 * ln 0 taken as 0."""
    arr = _check_simplex(as_finite_array(p, "entropy input", 1), "entropy input")
    return float(entropy_rows(arr))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """entropy of every nonnegative distribution row of p (..., C); a
    one-hot row gives +0.0."""
    # adding 0.0 turns the -0.0 of a one-hot row into +0.0 and moves no other value
    return -(p * np.log(np.where(p > 0.0, p, 1.0))).sum(axis=-1) + 0.0


def kl_divergence(p, q) -> float:
    """KL(p || q) in nats; q is floored at 1e-12 so the result stays finite."""
    parr = as_finite_array(p, "kl p", 1)
    qarr = as_finite_array(q, "kl q", 1)
    if parr.shape != qarr.shape:
        raise ShapeError(f"kl length mismatch: {parr.shape} vs {qarr.shape}")
    return float(kl_rows(_check_simplex(parr, "kl p"), _check_simplex(qarr, "kl q")))


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """kl_divergence of every distribution row of p (..., C) against the
    matching row of q, which broadcasts against p."""
    q = np.maximum(q, KL_FLOOR)
    kl = (p * (np.log(np.where(p > 0.0, p, 1.0)) - np.log(q))).sum(axis=-1)
    # Gibbs' inequality puts KL at >= 0; near-identical inputs can round a
    # hair below, so clamp rather than report an impossible negative
    return np.maximum(kl, 0.0)


def cosine(a, b) -> float:
    """Cosine similarity; rejects vectors shorter than the norm floor."""
    av = as_finite_array(a, "cosine a", 1)
    bv = as_finite_array(b, "cosine b", 1)
    if av.shape != bv.shape:
        raise ShapeError(f"cosine length mismatch: {av.shape} vs {bv.shape}")
    na = float(np.linalg.norm(av))
    nb = float(np.linalg.norm(bv))
    if na <= NORM_FLOOR or nb <= NORM_FLOOR:
        raise DegenerateVectorError(f"cosine norms too small: {na}, {nb}")
    return float(av @ bv / (na * nb))


@dataclass(eq=False)
class Latent:
    """A tokens-by-channels block of latent features (embedding rows use T=1)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = as_finite_array(self.values, "latent", 2)
        if self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ShapeError(f"latent needs at least one token and channel, got {self.values.shape}")

    def flat(self) -> np.ndarray:
        return self.values.ravel()


@dataclass(eq=False)
class Prediction:
    """Zero-shot prediction: cosine affinities and their softmax probabilities."""

    affinities: np.ndarray
    probs: np.ndarray
    argmax_class: int = field(init=False)

    def __post_init__(self):
        self.affinities = as_finite_array(self.affinities, "affinities", 1)
        self.probs = as_finite_array(self.probs, "probs", 1)
        if self.affinities.shape != self.probs.shape:
            raise ShapeError(
                f"affinities/probs length mismatch: {self.affinities.shape} vs {self.probs.shape}"
            )
        if self.probs.size < 2:
            raise ShapeError("prediction needs at least two classes")
        self.probs = _check_simplex(self.probs, "probs", 1e-9)
        # np.argmax takes the first maximum, which is the required tie-break.
        self.argmax_class = int(np.argmax(self.probs))


@dataclass(eq=False)
class PerturbationParams:
    """Multiplicative and additive noise fields for one latent variant.

    In channel mode z and b are constant along the token axis; in token mode
    constant along the channel axis; full mode has a free value per entry.
    """

    z: np.ndarray
    b: np.ndarray
    noise_mode: str = "full"

    def __post_init__(self):
        self.z = as_finite_array(self.z, "z", 2)
        self.b = as_finite_array(self.b, "b", 2)
        if self.z.shape != self.b.shape:
            raise ShapeError(f"z/b must share a shape, got {self.z.shape} and {self.b.shape}")
        check_noise_mode(self.noise_mode)
        if self.noise_mode == "channel":
            if np.any(self.z != self.z[:1, :]) or np.any(self.b != self.b[:1, :]):
                raise ShapeError("channel-mode noise must be constant along the token axis")
        elif self.noise_mode == "token":
            if np.any(self.z != self.z[:, :1]) or np.any(self.b != self.b[:, :1]):
                raise ShapeError("token-mode noise must be constant along the channel axis")


def perturb_and_project(f: Latent, params: PerturbationParams, epsilon: float) -> Latent:
    """Apply (1+z)*f + b, then clamp each entry into [f - eps, f + eps]."""
    check_real("epsilon", epsilon, 0, finite=False)
    if params.z.shape != f.values.shape:
        raise ShapeError(
            f"noise shape {params.z.shape} does not match latent shape {f.values.shape}"
        )
    return Latent(perturb_and_project_rows(f.values, params.z, params.b, epsilon,
                                           projection_bounds(f.values, epsilon)))


def projection_bounds(f: np.ndarray, epsilon: float):
    """(lo, hi), each shaped as f, that perturb_and_project_rows clamps to:
    f - epsilon and f + epsilon as rounded, each nudged an ulp at a time toward
    f until |bound - f|, as computed, is within epsilon. That is where nudging
    each step's overshooting entries would stop, since |v - f| as computed is
    monotone in v and f + delta never passes f + epsilon as rounded. f must be
    finite or the caller's errstate must silence the invalid inf - inf; a
    bound past float64's range overflows to inf, which the nudge brings back."""
    bounds = []
    with np.errstate(over="ignore"):
        for bound in (f - epsilon, f + epsilon):
            over = np.abs(bound - f) > epsilon
            while np.any(over):
                bound[over] = np.nextafter(bound[over], f[over])
                over = np.abs(bound - f) > epsilon
            bounds.append(bound)
    return tuple(bounds)


def perturb_and_project_rows(f: np.ndarray, z: np.ndarray, b: np.ndarray, epsilon: float,
                             bounds: tuple):
    """perturb_and_project on arrays: f broadcasts against z and b, and
    bounds is projection_bounds(f, epsilon)."""
    raw = (1.0 + z) * f + b
    delta = np.clip(raw - f, -epsilon, epsilon)
    out = f + delta
    # the containment bound is exact, not toleranced: rounding in f + delta can
    # overshoot by an ulp, so an entry past a bound takes that bound. Only an
    # entry strictly past one moves, so a zero keeps its sign as f + delta gave it
    lo, hi = bounds
    np.copyto(out, hi, where=out > hi)
    np.copyto(out, lo, where=out < lo)
    return out


def check_weights(weights) -> tuple:
    """The three objective weights as floats, or ParameterError unless each
    is a finite real >= 0."""
    if not isinstance(weights, (tuple, list, np.ndarray)) or len(weights) != 3:
        raise ParameterError(f"weights must be three nonnegative reals, got {weights!r}")
    for w in weights:
        check_real("each weight", w, 0)
    return tuple(float(w) for w in weights)


def weighted_total(s_con, s_ent, s_div, weights):
    """The guidance objective from its terms, floats or arrays alike."""
    w_con, w_ent, w_div = weights
    return w_con * s_con + w_ent * s_ent + w_div * s_div


@dataclass(eq=False)
class GuidanceScores:
    """The objective's terms, weights and weighted total, as guidance_objective builds them."""

    s_con: float
    s_ent: float
    s_div: float
    weights: tuple[float, float, float]
    total: float


def consistency_entropy_rows(probs: np.ndarray, seed_probs: np.ndarray):
    """Each variant's s_con and entropy gain over its seed, as (..., K)
    arrays, from probs (..., K, C) and the seed's seed_probs (..., C); s_con
    is the probability of the seed's predicted class."""
    target = np.argmax(seed_probs, axis=-1)[..., None, None]
    s_con = np.take_along_axis(probs, target, axis=-1)[..., 0]
    return s_con, entropy_rows(probs) - entropy_rows(seed_probs)[..., None]


def _kl_to_mean(flats: np.ndarray):
    """Each variant's KL of softmax(flat) to the softmax r of the mean of the
    K flats (..., K, n), both logs floored at KL_FLOOR, as (..., K); also the
    parts its gradient reuses: (kls, q, log q - log r, r)."""
    r = softmax_rows(np.mean(flats, axis=-2))
    q = softmax_rows(flats)
    log_ratio = np.log(np.maximum(q, KL_FLOOR)) - np.log(np.maximum(r, KL_FLOOR))[..., None, :]
    return (q * log_ratio).sum(axis=-1), q, log_ratio, r


def diversity_terms_rows(flats: np.ndarray) -> np.ndarray:
    """Each variant's s_div, (..., K): its term of the diversity score of the
    K flats (..., K, n), clamped at 0 as kl_rows clamps."""
    return np.maximum(_kl_to_mean(flats)[0], 0.0)


def diversity_rows(flats: np.ndarray):
    """Diversity score of each group of flat variants (..., K, n), plus its
    gradient with respect to every variant: see diversity_score_grad."""
    k = flats.shape[-2]
    kls, q, log_ratio, r = _kl_to_mean(flats)
    # d/dv of sum_k KL(q_k || softmax(v)) at v = mean of the flats; each flat
    # contributes 1/K to every coordinate of the mean.
    d_mean = k * r - np.sum(q, axis=-2)
    grads = q * (log_ratio - kls[..., None]) + (d_mean / k)[..., None, :]
    return np.maximum(kls.sum(axis=-1), 0.0), grads


def diversity_score_grad(values: Sequence[np.ndarray]):
    """Diversity score, the sum over variants of KL(softmax(flat variant) ||
    softmax(flat mean)), plus its gradient with respect to each variant's values."""
    if len(values) < 1:
        raise ShapeError("diversity needs at least one variant")
    arrs = [np.asarray(v, dtype=np.float64) for v in values]
    shape = arrs[0].shape
    for a in arrs:
        if a.shape != shape:
            raise ShapeError(f"variant shape mismatch: {a.shape} vs {shape}")
    flats = np.stack([as_finite_array(a.ravel(), "diversity input", 1) for a in arrs])
    total, grads = diversity_rows(flats[None])
    return float(total[0]), [g.reshape(shape) for g in grads[0]]


def guidance_objective(
    s: Prediction,
    s_primes: Sequence[Prediction],
    variants: Sequence[Latent],
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> GuidanceScores:
    """Aggregate consistency, entropy-gain, and diversity scores over K variants."""
    weights = check_weights(weights)
    if len(s_primes) != len(variants):
        raise ShapeError(
            f"got {len(s_primes)} predictions for {len(variants)} variants"
        )
    if any(sp.probs.size != s.probs.size for sp in s_primes):
        raise ShapeError("class count mismatch between the seed and a variant prediction")
    s_div, _ = diversity_score_grad([v.values for v in variants])  # ShapeError on no variants
    p_t, gains = consistency_entropy_rows(np.stack([sp.probs for sp in s_primes]), s.probs)
    # Python floats, each the sum of the K variants' terms in variant order
    s_con, s_ent = sum(p_t.tolist()), sum(gains.tolist())
    return GuidanceScores(s_con, s_ent, s_div, weights,
                          weighted_total(s_con, s_ent, s_div, weights))


def objective_gradient_fd(
    objective: Callable[[np.ndarray], float], params: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar objective, one coordinate at a time."""
    check_real("step h", h, 0, open_low=True, finite=False)
    base = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        plus = base.copy()
        minus = base.copy()
        plus[idx] += h
        minus[idx] -= h
        fp = float(objective(plus))
        fm = float(objective(minus))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericInputError(f"objective non-finite near coordinate {idx}")
        grad[idx] = (fp - fm) / (2.0 * h)
    return grad


def classify(e: np.ndarray, prototypes: np.ndarray, tau: float = 1.0) -> Prediction:
    """Zero-shot prediction of an embedding against unit-norm class prototypes."""
    return classify_grad(e, prototypes, tau)[0]


def classify_grad(e: np.ndarray, prototypes: np.ndarray, tau: float = 1.0):
    """Prediction plus the Jacobian of the cosine affinities w.r.t. the embedding.

    Row c of the Jacobian is (w_c - a_c * unit(e)) / ||e||, the gradient of
    cos(e, w_c) for a unit-norm prototype w_c.
    """
    ev = as_finite_array(e, "embedding", 1)
    protos = as_finite_array(prototypes, "prototypes", 2)
    check_real("tau", tau, 0, open_low=True, finite=False)
    if protos.shape[1] != ev.size:
        raise ShapeError(f"prototypes shape {protos.shape} does not match embedding size {ev.size}")
    if protos.shape[0] < 2:
        raise ShapeError("need at least two class prototypes")
    affinities, probs, jac = classify_rows(ev, protos, tau)
    return Prediction(affinities=affinities, probs=probs), jac


def classify_rows(e: np.ndarray, prototypes: np.ndarray, tau: float, need_jacobian: bool = True):
    """classify_grad of every finite embedding row of e (..., E) against
    validated prototypes: (affinities, probs, Jacobians or None). Scoring skips
    the Jacobians, which take ten times the rest of a call at bulk's block shape."""
    # np.linalg.norm of a vector is sqrt(dot(e, e)); a row dot keeps its rounding
    norm = np.sqrt(_row_dot(e, e))
    if (norm <= NORM_FLOOR).any():
        raise DegenerateVectorError(f"embedding norm {norm.min()} is below {NORM_FLOOR}")
    unit = e / norm[..., None]
    affinities = matvec(prototypes, unit)
    probs = softmax_rows(affinities, tau)
    if not need_jacobian:
        return affinities, probs, None
    jac = (prototypes - affinities[..., :, None] * unit[..., None, :]) / norm[..., None, None]
    return affinities, probs, jac


def consistency_entropy_grad(
    pred: Prediction,
    jac: np.ndarray,
    tau: float,
    target_class: int,
    lam_con: float,
    lam_ent: float,
) -> np.ndarray:
    """Gradient w.r.t. the embedding of lam_con * p[target] + lam_ent * H(p)."""
    jac = as_finite_array(jac, "jacobian", 2)
    classes = pred.probs.size
    if jac.shape[0] != classes:
        raise ShapeError(f"jacobian has {jac.shape[0]} rows for {classes} classes")
    check_real("tau", tau, 0, open_low=True, finite=False)
    check_count("target_class", target_class, 0, classes - 1)
    check_real("lam_con", lam_con, None)
    check_real("lam_ent", lam_ent, None)
    return consistency_entropy_grad_rows(pred.probs, jac, tau, target_class, lam_con, lam_ent)


def consistency_entropy_grad_rows(p, jac, tau, target, lam_con, lam_ent):
    """consistency_entropy_grad of every probability row of p (..., C) with
    its Jacobian (..., C, E); target broadcasts against p.shape[:-1].

    Uses the softmax-logit identities dp_c/dl_j = p_c (delta_cj - p_j) and
    dH/dl_j = -p_j (ln p_j + H), then maps logits back through tau and the
    affinity Jacobian.
    """
    logp = np.log(np.maximum(p, 1e-300))
    h_val = -(p * np.where(p > 0, logp, 0.0)).sum(axis=-1, keepdims=True)
    target = np.asarray(target)[..., None]
    p_t = np.take_along_axis(p, np.broadcast_to(target, p.shape[:-1] + (1,)), axis=-1)
    row = -p_t * p
    row = np.where(np.arange(p.shape[-1]) == target, row + p_t, row)
    # from +0.0, so a zero weight's term, finite and so +-0.0, keeps every bit
    d_logits = 0.0 + lam_con * row + lam_ent * (-(p * (logp + h_val)))
    return np.matmul((d_logits / tau)[..., None, :], jac)[..., 0, :]
