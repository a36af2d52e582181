"""Desk-scale stand-ins for the heavy generative stack.

A procedural toy-image generator plays the role of the image source, a PCA
linear codec plays the latent encoder/decoder, a seeded orthonormal
projection plays the image embedder, and class-mean prototypes give the
zero-shot scoring head. Everything is deterministic given its seeds. The
codec, embedder and head take their arrays through `latentmath.as_finite_array`,
as the one-vector kernels do; pixels go through `check_pixels`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import latentmath as lm
from .errors import (CoverageError, DegenerateVectorError, NumericInputError, ParameterError,
                     RankError, ShapeError, check_count, check_real)
from .rng import RngStream

# Ordered so small class counts pick mutually distinct silhouettes; the two
# stripe orientations sit in the default four so a 90-degree rotation maps
# one class onto another (which is what makes unfiltered augmentation risky).
SHAPE_FAMILIES = (
    "disc",
    "hstripes",
    "triangle",
    "vstripes",
    "square",
    "ring",
    "cross",
    "checker",
)

ORTHO_TOL = 1e-8


@dataclass(eq=False)
class Image:
    """A height-by-width-by-channels block of pixels in [0, 1], stored float32."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=np.float32)
        if self.pixels.ndim != 3:
            raise ShapeError(f"image must be 3-d (H, W, C), got shape {self.pixels.shape}")
        check_pixels(self.pixels[None])

    def flat(self) -> np.ndarray:
        return self.pixels.astype(np.float64).ravel()


def bad_image_index(pixels: np.ndarray) -> int | None:
    """Index of the first image of an (N, H, W, C) stack with a pixel that is
    non-finite or outside [0, 1], or None. The valid path is one min and one
    max over the stack, with no stack-sized temporary."""
    in_range = lambda p: p.min() >= 0.0 and p.max() <= 1.0  # nan fails both
    if pixels.size == 0 or in_range(pixels):
        return None
    return next(i for i, image in enumerate(pixels) if not in_range(image))


def check_pixels(pixels: np.ndarray) -> None:
    """Raise unless every pixel of an (N, H, W, C) stack is finite and in
    [0, 1], naming the first bad image: NumericInputError if it holds a
    non-finite pixel, else ParameterError."""
    i = bad_image_index(pixels)
    if i is not None:
        finite = bool(np.isfinite(pixels[i]).all())
        raise (ParameterError if finite else NumericInputError)(
            f"image {i} has pixels {'outside [0, 1]' if finite else 'that are not finite'}")


def pixel_stack(images) -> np.ndarray:
    """The (N, H, W, C) float32 pixels of a sequence of Images, stacked, or
    of such an array, checked once as a whole."""
    if not isinstance(images, np.ndarray):
        shapes = {img.pixels.shape for img in images}
        if len(shapes) > 1:
            raise ShapeError(f"images of different shapes {sorted(shapes)} cannot be stacked")
        # each Image checked its own pixels
        return np.stack([img.pixels for img in images]) if shapes else np.empty((0,) * 4, "f4")
    pixels = np.asarray(images, dtype=np.float32)
    if pixels.ndim != 4:
        raise ShapeError(f"pixel stack must be 4-d (N, H, W, C), got shape {pixels.shape}")
    check_pixels(pixels)
    return pixels


def record_dtype(image_shape: tuple) -> np.dtype:
    """The one layout of a GIFX sample: its <u4 label, then its <f4 pixels."""
    return np.dtype([("label", "<u4"), ("pixels", "<f4", tuple(image_shape))])


class LabeledDataset:
    """N labeled images of one shape and one name per class, held as `records`,
    one (N,) record_dtype array, the samples of its GIFX file: `pixels`, the
    (N, H, W, C) float32 images, and `labels`, the (N,) <u4 class indices, are
    views of it. images, a sequence of Image or such a pixel array, is copied
    once into the records; `.images` are Image views built on first access."""

    def __init__(self, images, labels, class_names):
        pixels, labels = pixel_stack(images), np.asarray(labels)
        if labels.shape != pixels.shape[:1]:
            raise ShapeError(f"{len(pixels)} images but labels of shape {labels.shape}")
        _check_labels(labels, class_names)
        self.records = np.empty(len(pixels), record_dtype(pixels.shape[1:]))
        self.records["label"], self.records["pixels"] = labels, pixels
        self.class_names = class_names

    @classmethod
    def from_records(cls, records: np.ndarray, class_names) -> "LabeledDataset":
        """The dataset of an (N,) C-contiguous record_dtype array, kept as it is:
        its labels are checked as the constructor checks them, then its pixels."""
        if records.ndim != 1 or not records.flags.c_contiguous:  # hashed and written as a buffer
            raise ShapeError(f"records must be one C-contiguous (N,) array, got {records.shape}")
        _check_labels(records["label"], class_names)
        check_pixels(records["pixels"])
        dataset = cls.__new__(cls)
        dataset.records, dataset.class_names = records, class_names
        return dataset

    @property
    def pixels(self) -> np.ndarray:
        return self.records["pixels"]

    @property
    def labels(self) -> np.ndarray:
        return self.records["label"]

    def __len__(self) -> int:
        return len(self.records)

    @functools.cached_property
    def images(self) -> list:
        return [Image(p) for p in self.pixels]

    @property
    def class_count(self) -> int:
        return len(self.class_names)

    @property
    def image_shape(self) -> tuple:
        return self.pixels.shape[1:]

    def stacked_flat(self) -> np.ndarray:
        """(N, pixels) float64 rows, each equal to its image's flat(): one
        exact cast of the float32 pixels."""
        return self.pixels.astype(np.float64).reshape(len(self), -1)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledDataset.from_records(self.records[idx], list(self.class_names))


def _check_labels(labels: np.ndarray, class_names) -> None:
    """Raise ParameterError unless there are two classes or more and each label names one."""
    c = len(class_names)
    if c < 2:
        raise ParameterError("dataset needs at least two classes")
    bad = np.flatnonzero(~((labels >= 0) & (labels < c)))
    if bad.size:
        raise ParameterError(f"label {labels[bad[0]]} at index {bad[0]} outside [0, {c})")


STRIPE_PERIOD = 4


def _render_family(family: str, side: int, gen: np.random.Generator) -> np.ndarray:
    """Draw one seeded instance of a shape family on a side*side canvas.

    Backgrounds sit near mid-gray and the compact shapes have one-pixel soft
    edges, so class identity lives in the silhouette rather than in global
    brightness. Draw order (bg, fg, center, radius, extras) is fixed.
    """
    ys, xs = np.mgrid[0:side, 0:side].astype(np.float64)
    bg = gen.uniform(0.45, 0.50)
    fg = gen.uniform(0.90, 1.00)
    cy = side / 2 + gen.uniform(-0.05, 0.05) * side
    cx = side / 2 + gen.uniform(-0.05, 0.05) * side
    r = gen.uniform(0.26, 0.36) * side
    dy, dx = ys - cy, xs - cx
    if family == "disc":
        dist = np.sqrt(dy * dy + dx * dx)
        m = np.clip(r - dist + 0.5, 0.0, 1.0)
    elif family == "square":
        half = 0.9 * r
        m = np.clip(half - np.maximum(np.abs(dy), np.abs(dx)) + 0.5, 0.0, 1.0)
    elif family == "triangle":
        top = cy - r
        m = np.clip(
            np.minimum.reduce([ys - top, cy + r - ys, 0.6 * (ys - top) - np.abs(dx)]) + 0.5,
            0.0,
            1.0,
        )
    elif family == "hstripes":
        phase = int(gen.integers(0, 2))
        m = (((ys.astype(np.int64) + phase) // STRIPE_PERIOD) % 2 == 0).astype(np.float64)
    elif family == "vstripes":
        phase = int(gen.integers(0, 2))
        m = (((xs.astype(np.int64) + phase) // STRIPE_PERIOD) % 2 == 0).astype(np.float64)
    elif family == "ring":
        dist = np.sqrt(dy * dy + dx * dx)
        m = np.clip(r - dist + 0.5, 0.0, 1.0) * np.clip(dist - 0.55 * r + 0.5, 0.0, 1.0)
    elif family == "cross":
        w = 0.30 * r
        arm_y = np.clip(w - np.abs(dy) + 0.5, 0.0, 1.0) * np.clip(r - np.abs(dx) + 0.5, 0.0, 1.0)
        arm_x = np.clip(w - np.abs(dx) + 0.5, 0.0, 1.0) * np.clip(r - np.abs(dy) + 0.5, 0.0, 1.0)
        m = np.maximum(arm_y, arm_x)
    elif family == "checker":
        py = int(gen.integers(0, 2))
        px = int(gen.integers(0, 2))
        cell = (ys.astype(np.int64) + py) // STRIPE_PERIOD + (
            xs.astype(np.int64) + px
        ) // STRIPE_PERIOD
        m = (cell % 2 == 0).astype(np.float64)
    else:
        raise ParameterError(f"unknown shape family {family!r}")
    return bg + (fg - bg) * m


def gen_toy_dataset(classes: int, per_class: int, side: int, seed: int) -> LabeledDataset:
    """Deterministic grayscale shape dataset, one shape family per class."""
    check_count("classes", classes, 2, len(SHAPE_FAMILIES))
    check_count("per_class", per_class, 1)
    check_count("side", side, 8, 64)
    check_count("seed", seed, None)
    records = np.empty(classes * per_class, record_dtype((side, side, 1)))
    records["label"] = np.repeat(np.arange(classes), per_class)
    pixels = records["pixels"].reshape(classes, per_class, side, side, 1)  # a view
    for c in range(classes):
        for i in range(per_class):
            gen = RngStream(("toygen", seed, c, i)).generator()
            pixels[c, i, :, :, 0] = _render_family(SHAPE_FAMILIES[c], side, gen)
    return LabeledDataset.from_records(records, list(SHAPE_FAMILIES[:classes]))


def _check_orthonormal(rows: np.ndarray, name: str) -> None:
    """Raise ShapeError unless rows holds at least one row and its rows are
    orthonormal."""
    if rows.shape[0] == 0:
        raise ShapeError(f"{name} needs at least one row")
    if np.max(np.abs(rows @ rows.T - np.eye(rows.shape[0]))) > ORTHO_TOL:
        raise ShapeError(f"{name} rows are not orthonormal")


@dataclass(eq=False)
class LinearCodec:
    """PCA codec: orthonormal basis rows over centered flattened pixels."""

    mean_image: np.ndarray
    basis: np.ndarray
    latent_shape: tuple
    image_shape: tuple

    def __post_init__(self):
        self.mean_image = lm.as_finite_array(self.mean_image, "codec mean image", 1)
        self.basis = lm.as_finite_array(self.basis, "codec basis", 2)
        t, d = self.latent_shape
        if t * d != self.basis.shape[0]:
            raise ShapeError(
                f"latent_shape {self.latent_shape} does not factor latent_dim {self.basis.shape[0]}"
            )
        if self.basis.shape[1] != self.mean_image.size:
            raise ShapeError(
                f"basis width {self.basis.shape[1]} vs mean size {self.mean_image.size}"
            )
        _check_orthonormal(self.basis, "codec basis")

    @property
    def latent_dim(self) -> int:
        return self.basis.shape[0]

    def encode_flat(self, flat_pixels: np.ndarray) -> np.ndarray:
        """Flat latent of one flat image or of every row of a stack (..., pixels)."""
        flat = np.asarray(flat_pixels, dtype=np.float64)
        if flat.ndim == 0 or flat.shape[-1] != self.mean_image.size:
            raise ShapeError(f"pixel shape {flat.shape} vs codec size {self.mean_image.size}")
        return lm.matvec(self.basis, flat - self.mean_image)

    def encode(self, image: Image) -> lm.Latent:
        if image.pixels.shape != self.image_shape:
            raise ShapeError(f"image shape {image.pixels.shape} vs codec {self.image_shape}")
        return lm.Latent(self.encode_flat(image.flat()).reshape(self.latent_shape))

    def decode_with_mask(self, flat_latent: np.ndarray):
        """Clamped flat pixels plus the mask of entries the clamp left alone,
        for one flat latent or every row of a stack (..., latent_dim)."""
        flat = np.asarray(flat_latent, dtype=np.float64)
        if flat.ndim == 0 or flat.shape[-1] != self.latent_dim:
            raise ShapeError(f"latent shape {flat.shape} vs codec latent_dim {self.latent_dim}")
        raw = self.mean_image + lm.matvec(self.basis.T, flat)
        mask = (raw > 0.0) & (raw < 1.0)
        return np.clip(raw, 0.0, 1.0), mask

    def decode(self, latent: lm.Latent) -> Image:
        if latent.values.shape != tuple(self.latent_shape):
            raise ShapeError(
                f"latent shape {latent.values.shape} vs codec {tuple(self.latent_shape)}"
            )
        clamped, _ = self.decode_with_mask(latent.flat())
        return Image(clamped.reshape(self.image_shape))


def fit_linear_codec(
    dataset: LabeledDataset, latent_dim: int = 32, latent_shape: tuple = (4, 8)
) -> LinearCodec:
    """Top principal directions of the centered pixel matrix, signs pinned."""
    if len(dataset) < 1:
        raise ParameterError("cannot fit a codec on an empty dataset")
    check_count("latent_dim", latent_dim, 1)
    t, d = latent_shape
    check_count("latent tokens", t, 1)
    check_count("latent channels", d, 1)
    if t * d != latent_dim:
        raise ParameterError(f"latent_shape {latent_shape} must factor latent_dim {latent_dim}")
    x = dataset.stacked_flat()
    n, pixel_dim = x.shape
    if latent_dim > min(n, pixel_dim):
        raise ParameterError(
            f"latent_dim {latent_dim} exceeds min(samples, pixels) = {min(n, pixel_dim)}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    tol = max(n, pixel_dim) * np.finfo(np.float64).eps * svals[0]
    rank = int(np.sum(svals > tol))
    if rank < latent_dim:
        raise RankError(f"data rank {rank} is below requested latent_dim {latent_dim}")
    basis = vt[:latent_dim].copy()
    for row in basis:  # a unit-norm row has an entry above 1e-12
        if row[np.flatnonzero(np.abs(row) > 1e-12)[0]] < 0:
            row *= -1.0
    return LinearCodec(
        mean_image=mean,
        basis=basis,
        latent_shape=tuple(latent_shape),
        image_shape=dataset.image_shape,
    )


# images per matrix product in Embedder.embed_dataset: a whole 4,200-image
# 32x32 set at once would add a 34 MB float64 copy to the process peak
EMBED_BATCH = 256


@dataclass(eq=False)
class Embedder:
    """Orthonormal random projection of centered pixels."""

    projection: np.ndarray
    image_shape: tuple

    def __post_init__(self):
        self.projection = lm.as_finite_array(self.projection, "embedder projection", 2)
        _check_orthonormal(self.projection, "embedder")

    @property
    def embed_dim(self) -> int:
        return self.projection.shape[0]

    def embed_flat(self, flat_pixels: np.ndarray) -> np.ndarray:
        """Embedding of one flat image or of every row of a stack (..., pixels)."""
        flat = np.asarray(flat_pixels, dtype=np.float64)
        if flat.ndim == 0 or flat.shape[-1] != self.projection.shape[1]:
            raise ShapeError(
                f"pixel shape {flat.shape} vs embedder input {self.projection.shape[1]}"
            )
        return lm.matvec(self.projection, flat - 0.5)

    def embed(self, image: Image) -> np.ndarray:
        return self.embed_images([image])[0]

    def embed_images(self, images) -> np.ndarray:
        """(N, embed_dim) embeddings of a sequence of Images or of an
        (N, H, W, C) pixel stack, one embed_flat call: one gemv per row, so
        each row equals the image's own embed."""
        pixels = pixel_stack(images)
        if pixels.shape[1:] != self.image_shape:
            raise ShapeError(f"image shape {pixels.shape[1:]} vs embedder {self.image_shape}")
        return self.embed_flat(pixels.astype(np.float64).reshape(len(pixels), -1))

    def embed_dataset(self, dataset: LabeledDataset) -> np.ndarray:
        """(N, embed_dim) embeddings of every image, one matrix product per batch."""
        if dataset.image_shape != self.image_shape:
            raise ShapeError(f"image shape {dataset.image_shape} vs embedder {self.image_shape}")
        out = np.empty((len(dataset), self.embed_dim))
        for start in range(0, len(dataset), EMBED_BATCH):
            batch = dataset.pixels[start : start + EMBED_BATCH]
            rows = batch.astype(np.float64).reshape(len(batch), -1)
            out[start : start + len(rows)] = (rows - 0.5) @ self.projection.T
        return out


def make_embedder(image_shape: tuple, embed_dim: int, seed: int) -> Embedder:
    """Embedder over image_shape with embed_dim seeded orthonormal rows. The
    rows are built once per process per (pixels, embed_dim, seed), and each
    call gets its own writable copy of them."""
    pixel_dim = int(np.prod(image_shape))
    # checked before the memo is asked: True == 1 hashes alike, so a lookup
    # first would pass seed=True once seed=1 was built
    check_count("embed_dim", embed_dim, 1, pixel_dim)
    check_count("seed", seed, None)
    projection = _seeded_projection(pixel_dim, int(embed_dim), int(seed))
    return Embedder(projection=projection.copy(), image_shape=tuple(image_shape))


@functools.lru_cache(maxsize=4)  # an entry holds embed_dim x pixels float64s: 512 KB at 32x32, 64
def _seeded_projection(pixel_dim: int, embed_dim: int, seed: int) -> np.ndarray:
    """Read-only (embed_dim, pixel_dim) orthonormal rows: two-pass modified
    Gram-Schmidt of seeded Gaussian rows. Pass 1 is right-looking: once row i
    is normalized, every later row takes its step against it at once, one dot
    per row as v @ q[i] gives it, so each row sees a per-row loop's steps in
    its order; pass 2 loops per row."""
    gen = RngStream(("embedder", seed)).generator()
    q = gen.standard_normal((embed_dim, pixel_dim))  # at step i: q[i:] after pass 1 against q[:i]
    for i in range(embed_dim):
        v = q[i]
        for j in range(i):
            v = v - (v @ q[j]) * q[j]
        norm = np.linalg.norm(v)
        if norm < 1e-10:
            raise RankError(f"embedder row {i} collapsed during orthonormalization")
        q[i] = v / norm
        q[i + 1:] -= np.matmul(q[i + 1:, None, :], q[i][:, None])[:, 0] * q[i]
    q.flags.writeable = False
    return q


def check_tau(tau) -> None:
    """Raise ParameterError unless tau, a head's softmax temperature, is a finite
    real >= the least normal float64: a cosine over a subnormal tau can overflow."""
    check_real("tau", tau, float(np.finfo(np.float64).tiny))


@dataclass(eq=False)
class ZeroShotHead:
    """Unit-norm class prototypes scored by cosine and a temperature softmax."""

    prototypes: np.ndarray
    tau: float = 1.0

    def __post_init__(self):
        self.prototypes = lm.as_finite_array(self.prototypes, "prototypes", 2)
        if self.prototypes.shape[0] < 2:
            raise ShapeError(f"prototypes must be (C >= 2, E), got {self.prototypes.shape}")
        norms = np.linalg.norm(self.prototypes, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ParameterError("prototypes must have unit norm")
        check_tau(self.tau)

    def predict_rows(self, embeddings: np.ndarray) -> np.ndarray:
        """Class probabilities (..., C) of every embedding row (..., E)."""
        if not np.isfinite(embeddings).all():
            raise NumericInputError("embedding contains non-finite values")
        _, probs, _ = lm.classify_rows(embeddings, self.prototypes, self.tau, need_jacobian=False)
        return probs


def fit_prototype_head(
    exemplars: LabeledDataset, embedder: Embedder, tau: float = 1.0
) -> ZeroShotHead:
    """Class prototypes are the renormalized mean embeddings of each class."""
    protos = np.zeros((exemplars.class_count, embedder.embed_dim))
    # one gemv per row, so a row does not depend on the rows embedded with it
    embeddings = embedder.embed_images(exemplars.pixels)
    for c, name in enumerate(exemplars.class_names):
        rows = embeddings[exemplars.labels == c]
        if len(rows) == 0:
            raise CoverageError(f"class {c} ({name}) has no exemplars")
        mean_emb = np.mean(rows, axis=0)
        norm = np.linalg.norm(mean_emb)
        if norm <= 1e-12:
            raise DegenerateVectorError(f"class {c} ({name}) mean embedding is zero")
        protos[c] = mean_emb / norm
    return ZeroShotHead(prototypes=protos, tau=tau)
