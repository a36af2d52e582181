"""Augmentation baselines and prediction-filtered selective expansion.

The augmenters are plain image transforms fed by the same counter-based
streams as the guided flows, so every candidate is reproducible from its
identifiers. Selective expansion scores augmented candidates with the
zero-shot head and keeps the ones that preserve the seed's predicted class
while increasing prediction entropy, either per seed (sample_wise) or from
one global pool (sample_agnostic).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import latentmath as lm
from .backends import Image
from .errors import ParameterError, ShapeError
from .rng import RngStream

SELECTION_MODES = ("sample_wise", "sample_agnostic")


def check_cutout_frac(frac: float) -> None:
    if not (0.0 <= frac <= 1.0):
        raise ParameterError(f"cutout frac must be in [0, 1], got {frac}")


def check_gridmask_params(period: int, keep_ratio: float) -> None:
    if not isinstance(period, int) or period < 2:
        raise ParameterError(f"gridmask period must be an int >= 2, got {period}")
    if not (0.0 < keep_ratio <= 1.0):
        raise ParameterError(f"keep_ratio must be in (0, 1], got {keep_ratio}")


def cutout(image: Image, frac: float, rng_stream: RngStream) -> Image:
    """Blank a random square patch, side = round(frac * min(H, W)), to mid-gray."""
    check_cutout_frac(frac)
    h, w, _ = image.pixels.shape
    side = int(round(frac * min(h, w)))
    if side < 1:
        return Image(image.pixels.astype(np.float64).copy())
    gen = rng_stream.generator()
    y0 = int(gen.integers(0, h - side + 1))
    x0 = int(gen.integers(0, w - side + 1))
    px = image.pixels.astype(np.float64).copy()
    px[y0 : y0 + side, x0 : x0 + side, :] = 0.5
    return Image(px)


def gridmask(image: Image, period: int, keep_ratio: float, phase=(0, 0)) -> Image:
    """Blank a square hole at every period-aligned cell corner to mid-gray.

    The hole side is round((1 - keep_ratio) * period); phase shifts the grid.
    """
    check_gridmask_params(period, keep_ratio)
    if len(phase) != 2:
        raise ParameterError(f"phase must be two offsets, got {phase!r}")
    hole = int(round((1.0 - keep_ratio) * period))
    px = image.pixels.astype(np.float64).copy()
    if hole > 0:
        h, w, _ = px.shape
        yy = (np.arange(h)[:, None] + int(phase[0])) % period < hole
        xx = (np.arange(w)[None, :] + int(phase[1])) % period < hole
        px[yy & xx] = 0.5
    return Image(px)


def _translate(px: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.full_like(px, 0.5)
    h, w, _ = px.shape
    ys = slice(max(0, dy), h + min(0, dy))
    xs = slice(max(0, dx), w + min(0, dx))
    ys_src = slice(max(0, -dy), h + min(0, -dy))
    xs_src = slice(max(0, -dx), w + min(0, -dx))
    out[ys, xs] = px[ys_src, xs_src]
    return out


def rand_lite(image: Image, rng_stream: RngStream) -> Image:
    """One or two light transforms drawn from flip, rotate, brightness, shift."""
    h, w, _ = image.pixels.shape
    if h != w:
        raise ShapeError(f"rand_lite needs square images for rotation, got {h}x{w}")
    gen = rng_stream.generator()
    n_ops = int(gen.integers(1, 3))
    ops = gen.choice(4, size=n_ops, replace=False)
    px = image.pixels.astype(np.float64)
    for op in ops:
        if op == 0:
            px = px[:, ::-1, :]
        elif op == 1:
            px = np.rot90(px, k=1, axes=(0, 1))
        elif op == 2:
            alpha = float(gen.uniform(0.7, 1.3))
            px = np.clip(px * alpha, 0.0, 1.0)
        else:
            max_dy, max_dx = h // 4, w // 4
            dy = int(gen.integers(-max_dy, max_dy + 1))
            dx = int(gen.integers(-max_dx, max_dx + 1))
            px = _translate(px, dy, dx)
    return Image(px.copy())


@dataclass(eq=False)
class SelectionRecord:
    """Score sheet for one selected augmentation candidate."""

    seed_index: int
    candidate_index: int
    stream_id: str
    s_con: float
    entropy_gain: float
    consistent: bool
    qualified: bool
    # the candidate's scoring embedding, kept so its records need no second embed
    embedding: np.ndarray | None = field(default=None, repr=False)


def _rank_key(record: SelectionRecord):
    # qualified candidates first, then consistent ones, each by gain
    # descending; the stream id breaks exact ties deterministically
    tier = 0 if record.qualified else (1 if record.consistent else 2)
    return (tier, -record.entropy_gain, record.stream_id)


def selective_expand(
    seeds,
    augmenter,
    embedder,
    head,
    quota_k: int,
    rng_stream: RngStream,
    mode: str = "sample_wise",
    candidate_budget: int | None = None,
):
    """Generate, score, and select augmented variants of the seed images.

    Every seed spawns candidate_budget candidates (default 4 * quota_k). A
    candidate qualifies when it keeps the seed's predicted class and gains
    prediction entropy. sample_wise takes the top quota_k per seed, padding
    from that seed's own pool to hit the quota exactly; sample_agnostic
    ranks only the qualified candidates globally and takes at most
    len(seeds) * quota_k of them, which can starve or skip seeds entirely.
    Each seed and its candidates are embedded as one stack
    (embedder.embed_images) and classified as one (head.predict_rows).
    Accepts a labeled dataset or a plain sequence of images. Returns the
    selected images and their records, ordered by seed.
    """
    images_in = getattr(seeds, "images", seeds)
    if quota_k < 1:
        raise ParameterError(f"quota_k must be >= 1, got {quota_k}")
    if mode not in SELECTION_MODES:
        raise ParameterError(f"mode must be one of {SELECTION_MODES}, got {mode!r}")
    if candidate_budget is None:
        candidate_budget = 4 * quota_k
    if candidate_budget < quota_k:
        raise ParameterError(
            f"candidate_budget {candidate_budget} is below quota_k {quota_k}"
        )
    if len(images_in) == 0:
        raise ParameterError("selective expansion needs at least one seed")

    pools = []  # one list of (record, image) per seed
    for j, seed in enumerate(images_in):
        streams = [rng_stream.child("seed", j, "cand", c) for c in range(candidate_budget)]
        candidates = [augmenter(seed, stream) for stream in streams]
        # row 0 is the seed, row 1 + c candidate c
        embeddings = embedder.embed_images([seed, *candidates])
        probs = head.predict_rows(embeddings)
        s_con, gains = lm.consistency_entropy_rows(probs[1:], probs[0])
        consistent = (probs[1:].argmax(axis=-1) == probs[0].argmax()).tolist()
        pool = []
        for c, (stream, img) in enumerate(zip(streams, candidates)):
            gain = float(gains[c])
            record = SelectionRecord(
                seed_index=j,
                candidate_index=c,
                stream_id=stream.id,
                s_con=float(s_con[c]),
                entropy_gain=gain,
                consistent=consistent[c],
                qualified=consistent[c] and gain > 0.0,
                embedding=embeddings[1 + c],
            )
            pool.append((record, img))
        pools.append(pool)

    if mode == "sample_wise":
        selected = []
        for pool in pools:
            selected.extend(sorted(pool, key=lambda p: _rank_key(p[0]))[:quota_k])
    else:
        ranked = sorted(
            (p for pool in pools for p in pool if p[0].qualified), key=lambda p: _rank_key(p[0])
        )
        selected = ranked[: quota_k * len(images_in)]
        selected.sort(key=lambda p: (p[0].seed_index, _rank_key(p[0])))

    images = [img for _, img in selected]
    records = [rec for rec, _ in selected]
    return images, records
