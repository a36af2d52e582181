"""Augmentation baselines and prediction-filtered selective expansion.

Each baseline is a draw step and an apply step. The draw step takes one
variant's parameters from the variant's own counter-based stream: the
cutout corner, the gridmask phase, or the rand_lite op list and its
values. So every candidate is reproducible from its identifiers. The apply
step writes the transform in place into a stack of images, all the
variants of a block at once. cutout, gridmask and rand_lite are the
one-image forms of the same two steps.

expand_block runs a baseline on a block of seeds. It draws every variant
through one re-keyed generator (rng.rekeyed), writes the variants into the
caller's pixel array and scores the block as one (G, 1 + R) stack, each
seed's row 0 and its R variants after it, one gemv per row, so no
variant's bytes depend on the block it shares. selective_expand takes any
(image, stream) -> Image augmenter and scores each seed's pool the same
way. Selective expansion keeps the candidates that preserve the seed's
predicted class while increasing prediction entropy, either per seed
(sample_wise) or from one global pool (sample_agnostic); both rank with
_top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import latentmath as lm
from .backends import Image
from .errors import ParameterError, ShapeError, check_count, check_real
from .rng import RngStream, rekeyed

if TYPE_CHECKING:
    from .pipeline import ExpansionConfig

SELECTION_MODES = ("sample_wise", "sample_agnostic")
CANDIDATES_PER_VARIANT = 4  # a selective method's default budget: this many per variant


def check_cutout_frac(frac: float) -> None:
    check_real("cutout frac", frac, 0.0, 1.0)


def check_gridmask_params(period: int, keep_ratio: float) -> None:
    check_count("gridmask period", period, 2)
    check_real("keep_ratio", keep_ratio, 0.0, 1.0, open_low=True)


def _check_square(shape: tuple) -> None:
    if shape[0] != shape[1]:
        raise ShapeError(f"rand_lite needs square images for rotation, got {shape[0]}x{shape[1]}")


def _blank(pixels: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Set to mid-gray each pixel of pixels (..., H, W, C) whose row is true
    in rows (..., H) and whose column is true in cols (..., W)."""
    np.copyto(pixels, 0.5, where=(rows[..., :, None] & cols[..., None, :])[..., None])


def cutout_side(frac: float, shape: tuple) -> int:
    return int(round(frac * min(shape[0], shape[1])))


def draw_cutout(gen: np.random.Generator, shape: tuple, side: int) -> tuple:
    """The corner (y0, x0) of one side x side patch, side >= 0, in an image of shape (H, W, C)."""
    return int(gen.integers(0, shape[0] - side + 1)), int(gen.integers(0, shape[1] - side + 1))


def apply_cutout(pixels: np.ndarray, corners: np.ndarray, side: int) -> None:
    """Blank the side x side patch at corners (..., 2) of each image of pixels (..., H, W, C)."""
    y = np.arange(pixels.shape[-3]) - corners[..., :1]
    x = np.arange(pixels.shape[-2]) - corners[..., 1:]
    _blank(pixels, (0 <= y) & (y < side), (0 <= x) & (x < side))


def cutout(image: Image, frac: float, rng_stream: RngStream) -> Image:
    """Blank a random square patch, side = round(frac * min(H, W)), to mid-gray."""
    check_cutout_frac(frac)
    px = image.pixels.copy()
    side = cutout_side(frac, px.shape)
    apply_cutout(px, np.array(draw_cutout(rng_stream.generator(), px.shape, side)), side)
    return Image(px)


def grid_hole(period: int, keep_ratio: float) -> int:
    return int(round((1.0 - keep_ratio) * period))


def draw_grid_phase(gen: np.random.Generator, period: int) -> np.ndarray:
    """One gridmask phase (dy, dx), each uniform in [0, period)."""
    return gen.integers(0, period, 2)


def apply_gridmask(pixels: np.ndarray, phases: np.ndarray, period: int, hole: int) -> None:
    """Blank the grid of holes at phases (..., 2) of each image of pixels (..., H, W, C)."""
    _blank(pixels, (np.arange(pixels.shape[-3]) + phases[..., :1]) % period < hole,
           (np.arange(pixels.shape[-2]) + phases[..., 1:]) % period < hole)


def gridmask(image: Image, period: int, keep_ratio: float, phase=(0, 0)) -> Image:
    """Blank a square hole at every period-aligned cell corner to mid-gray.

    The hole side is round((1 - keep_ratio) * period); phase shifts the grid.
    """
    check_gridmask_params(period, keep_ratio)
    if len(phase) != 2:
        raise ParameterError(f"phase must be two offsets, got {phase!r}")
    px = image.pixels.copy()
    apply_gridmask(px, np.array([int(p) for p in phase]), period, grid_hole(period, keep_ratio))
    return Image(px)


def _shift(pixels: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Each image of pixels (M, H, W, C) moved down by dy and right by dx,
    shifts (M, 2) holding each image's (dy, dx); what it uncovers is mid-gray."""
    m, h, w = pixels.shape[:3]
    y = np.arange(h) - shifts[:, :1]  # each output row's source row
    x = np.arange(w) - shifts[:, 1:]
    out = pixels[np.arange(m)[:, None, None], y.clip(0, h - 1)[:, :, None],
                 x.clip(0, w - 1)[:, None, :]]
    out[((y < 0) | (y >= h))[:, :, None] | ((x < 0) | (x >= w))[:, None, :]] = 0.5
    return out


# rand_lite's ops, each on a stack (M, H, W, C) of square images with one
# value per image: flip, rotate, brightness, shift
_RAND_LITE_OPS = (
    lambda px, values: px[:, :, ::-1],
    lambda px, values: np.rot90(px, axes=(1, 2)),
    lambda px, values: np.clip(px * np.array(values)[:, None, None, None], 0.0, 1.0),
    lambda px, values: _shift(px, np.array(values)),
)


def draw_rand_lite(gen: np.random.Generator, shape: tuple) -> list:
    """One rand_lite op list for an image of shape (H, W, C): one or two
    distinct ops, each (op, value), value the brightness factor of op 2, the
    shift (dy, dx) of op 3 and None for a flip (0) or rotation (1)."""
    h, w = shape[:2]
    ops = []
    for op in gen.choice(4, size=int(gen.integers(1, 3)), replace=False).tolist():
        value = None
        if op == 2:
            value = float(gen.uniform(0.7, 1.3))
        elif op == 3:
            value = (int(gen.integers(-(h // 4), h // 4 + 1)),
                     int(gen.integers(-(w // 4), w // 4 + 1)))
        ops.append((op, value))
    return ops


def apply_rand_lite(pixels: np.ndarray, draws: list) -> None:
    """Apply each image's op list (draw_rand_lite) to the square stack pixels
    (M, H, W, C) in place. Step s of every image runs before step s + 1 of
    any, each op on all the images that take it at that step at once. A
    brightness factor multiplies in float64 and rounds to float32 once;
    flips, rotations and shifts only move pixels and fill 0.5, so rounding
    before them gives the bytes of rounding after them."""
    for step in range(2):
        for op, apply in enumerate(_RAND_LITE_OPS):
            picked = [(m, ops[step][1]) for m, ops in enumerate(draws)
                      if len(ops) > step and ops[step][0] == op]
            if picked:
                index, values = (list(t) for t in zip(*picked))
                pixels[index] = apply(pixels[index], values)


def rand_lite(image: Image, rng_stream: RngStream) -> Image:
    """One or two light transforms drawn from flip, rotate, brightness, shift."""
    _check_square(image.pixels.shape)
    px = image.pixels[None].copy()
    apply_rand_lite(px, [draw_rand_lite(rng_stream.generator(), px.shape[1:])])
    return Image(px[0])


def baseline_steps(name: str, config: ExpansionConfig, shape: tuple):
    """The (draw, apply) steps of baseline name, "cutout", "gridmask" or
    "randlite", under config on images of shape (H, W, C): draw(gen) takes
    one variant's parameters from its generator, and apply(pixels, params)
    writes the M variants of a stack (M, H, W, C) in place from their M
    parameters; a patch or hole of side 0 blanks nothing. Raises
    ParameterError where the config can blank a whole image, which leaves no
    embedding to score, and ShapeError where rand_lite meets a non-square
    image."""
    h, w = shape[:2]
    if name == "cutout":
        side = cutout_side(config.cutout_frac, shape)
        if side == h == w:
            raise ParameterError(f"--cutout-frac {config.cutout_frac} blanks the whole "
                                 f"{h}x{w} image, which leaves nothing to score")
        return (lambda gen: draw_cutout(gen, shape, side),
                lambda px, corners: apply_cutout(px, np.array(corners), side))
    if name == "gridmask":
        period, hole = config.grid_period, grid_hole(config.grid_period, config.grid_keep)
        # each axis is all hole at phase 0 once the hole spans the period or the image
        if hole >= min(period, h) and hole >= min(period, w):
            raise ParameterError(f"--grid-keep {config.grid_keep} with --grid-period {period} "
                                 f"blanks the whole {h}x{w} image at some phase, which leaves "
                                 f"nothing to score")
        return (lambda gen: draw_grid_phase(gen, period),
                lambda px, phases: apply_gridmask(px, np.array(phases), period, hole))
    _check_square(shape)
    return lambda gen: draw_rand_lite(gen, shape), apply_rand_lite


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


def _rank(qualified: bool, consistent: bool, gain: float, stream_id: str) -> tuple:
    # qualified candidates first, then consistent ones, each by gain
    # descending; the stream id breaks exact ties deterministically
    return (0 if qualified else (1 if consistent else 2), -gain, stream_id)


def _top(k: int, keys) -> list:
    """The indices of the k first candidates in _rank order, keys holding
    each candidate's (qualified, consistent, gain, stream id)."""
    ranks = [_rank(*key) for key in keys]
    return sorted(range(len(ranks)), key=ranks.__getitem__)[:k]


def _score_rows(embeddings: np.ndarray, head) -> tuple:
    """(s_con, gain, consistent, qualified), each (..., R), of R images
    against their seed, from embeddings (..., 1 + R, E) whose row 0 is the
    seed's. An image qualifies when it keeps the seed's predicted class and
    gains prediction entropy."""
    probs = head.predict_rows(embeddings)
    s_con, gains = lm.consistency_entropy_rows(probs[..., 1:, :], probs[..., 0, :])
    consistent = probs[..., 1:, :].argmax(axis=-1) == probs[..., :1, :].argmax(axis=-1)
    return s_con, gains, consistent, consistent & (gains > 0.0)


def expand_block(seed_pixels, out, steps, embedder, head, streams, budget=None):
    """Expand G seeds, seed_pixels (G, H, W, C), by a baseline's steps
    (baseline_steps), writing seed g's K variants into out[g], out being
    (G, K, H, W, C). Returns their record columns as a guided block does
    (guidance module docstring), with retry_count 0 and fallback false.

    A plain baseline draws variant i of seed g from streams[g].child("variant",
    i). A selective one (budget set) draws budget candidates per seed from
    streams[g].child("seed", 0, "cand", c) and keeps each seed's top K in
    _rank order, as selective_expand does for one seed in sample_wise mode.
    Both score columns hold each variant's s_con, entropy gain and
    diversity term among the seed's K."""
    g, k = out.shape[:2]
    parts = ("variant",) if budget is None else ("seed", 0, "cand")
    subs = [[stream.child(*parts, c) for c in range(budget or k)] for stream in streams]
    pool = out if budget is None else np.empty((g, budget) + out.shape[2:], np.float32)
    pool[...] = seed_pixels[:, None]
    draw, apply = steps
    params = [draw(gen) for gen in rekeyed(sub for row in subs for sub in row)]
    apply(pool.reshape((-1,) + pool.shape[2:]), params)  # a view: its first two axes merge
    stack = np.concatenate([seed_pixels[:, None], pool], axis=1)  # each seed in its row 0
    embeddings = embedder.embed_flat(stack.reshape(stack.shape[:2] + (-1,)))
    terms = (*_score_rows(embeddings, head), embeddings[:, 1:])
    ids = [[sub.id for sub in row] for row in subs]
    if budget is not None:
        s_con, gains, consistent, qualified, _ = terms
        picks = np.array([_top(k, zip(*seed)) for seed in zip(
            qualified.tolist(), consistent.tolist(), gains.tolist(), ids)])
        rows = np.arange(g)[:, None]
        out[...] = pool[rows, picks]
        terms = tuple(t[rows, picks] for t in terms)
        ids = [[row[c] for c in pick] for row, pick in zip(ids, picks.tolist())]
    s_con, gains, consistent, qualified, embeddings = terms
    scores = np.stack([s_con, gains, lm.diversity_terms_rows(embeddings)], axis=-1)
    return dict(scores_initial=scores, scores_final=scores, consistent=consistent,
                retry_count=np.zeros((g, k), np.int64), fallback=np.zeros((g, k), bool),
                qualified=qualified, stream_id=ids)


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

    Every seed spawns candidate_budget candidates (default
    CANDIDATES_PER_VARIANT * quota_k). A candidate qualifies when it keeps
    the seed's predicted class and gains prediction entropy. sample_wise
    takes the top quota_k per seed, padding from the seed's own pool;
    sample_agnostic ranks only the qualified candidates globally and takes
    at most len(seeds) * quota_k of them, which can starve or skip seeds.
    Each seed's pool is scored as one stack (embedder.embed_images), its
    row 0 the seed. Accepts a labeled dataset or a plain sequence of images.
    Returns the selected images and their records, ordered by seed.
    """
    images_in = getattr(seeds, "images", seeds)
    check_count("quota_k", quota_k, 1)
    if mode not in SELECTION_MODES:
        raise ParameterError(f"mode must be one of {SELECTION_MODES}, got {mode!r}")
    if candidate_budget is None:
        candidate_budget = CANDIDATES_PER_VARIANT * quota_k
    check_count("candidate_budget", candidate_budget, quota_k)
    if len(images_in) == 0:
        raise ParameterError("selective expansion needs at least one seed")

    records, images = [], []
    for j, seed in enumerate(images_in):
        streams = [rng_stream.child("seed", j, "cand", c) for c in range(candidate_budget)]
        candidates = [augmenter(seed, stream) for stream in streams]
        scores = _score_rows(embedder.embed_images([seed, *candidates]), head)
        records += [SelectionRecord(j, c, stream.id, *row) for c, (stream, row)
                    in enumerate(zip(streams, zip(*(t.tolist() for t in scores))))]
        images += candidates
    keys = [(r.qualified, r.consistent, r.entropy_gain, r.stream_id) for r in records]
    if mode == "sample_wise":
        n = candidate_budget
        picked = [j * n + c for j in range(len(images_in))
                  for c in _top(quota_k, keys[j * n:(j + 1) * n])]
    else:
        # qualified candidates rank first, so the qualified ones among the
        # first quota_k * len(seeds) are the best of them; the stable sort by
        # seed keeps each seed's in rank order
        first = _top(quota_k * len(images_in), keys)
        picked = sorted((i for i in first if records[i].qualified),
                        key=lambda i: records[i].seed_index)
    return [images[i] for i in picked], [records[i] for i in picked]
