"""Downstream evaluation: a small pixel-space classifier and a coverage probe.

The classifier is a one-hidden-layer tanh network trained by full-batch
gradient descent on raw pixels. It is deliberately plain: the point is to
compare datasets, so the learner must be deterministic and identical across
every expansion method being compared.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .backends import LabeledDataset
from .errors import (InputError, NumericDivergenceError, NumericInputError, ParameterError,
                     ShapeError, check_count, check_real)
from .rng import RngStream


@dataclass(eq=False)
class ClassifierConfig:
    hidden: int = 32
    epochs: int = 100
    lr: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_count("hidden", self.hidden, 1)
        check_count("epochs", self.epochs, 1)
        check_count("seed", self.seed, None)
        check_real("lr", self.lr, 0, open_low=True)


@dataclass(eq=False)
class Metrics:
    """Test-set scores plus the training curve that produced the model."""

    accuracy: float
    macro_accuracy: float
    per_class_recall: list
    absent_classes: bool
    train_loss_curve: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


# rows per chunk of an MLPClassifier epoch: each chunk's gradient products
# sum over at most this many samples, few enough that OpenBLAS gave them the
# same bits at 1, 2 and 4 threads (512 rows did not, on a 1,000 x 1,024 fit)
MLP_CHUNK = 256

# probe rows per block of covering_radius: a block's |p|^2 + |c|^2 temporary
# is this many rows of float64 per cover point, 2.2 MB at bulk's 4,200 covers,
# beside the one probes x covers array (13.4 MB)
RADIUS_BLOCK = 64


def _features(x) -> np.ndarray:
    """x as aligned, C-ordered float32 rows. A dataset's pixels are a
    record-strided view that is neither, and matmul leaves BLAS for such an array."""
    return np.require(x, np.float32, ["C", "A"])


def _chunked_sum(a: np.ndarray) -> np.ndarray:
    """The sum over the rows of a with the bits of a per-chunk loop: each
    MLP_CHUNK-row chunk summed on its own, then added from zero in chunk order."""
    full = a.shape[0] - a.shape[0] % MLP_CHUNK
    parts = list(a[:full].reshape(-1, MLP_CHUNK, *a.shape[1:]).sum(axis=1))
    if full < a.shape[0]:
        parts.append(a[full:].sum(axis=0))
    total = np.zeros(a.shape[1:], a.dtype)
    for part in parts:
        total += part
    return total


class MLPClassifier:
    """One tanh hidden layer, softmax cross-entropy, full-batch descent, in
    float32."""

    def __init__(self, input_dim: int, class_count: int, config: ClassifierConfig):
        check_count("input_dim", input_dim, 1)
        check_count("class_count", class_count, 2)
        self.config = config
        self.class_count = class_count
        gen = RngStream.root(config.seed).child("mlp").generator()
        a1 = 1.0 / np.sqrt(input_dim)
        a2 = 1.0 / np.sqrt(config.hidden)
        self.w1 = gen.uniform(-a1, a1, (input_dim, config.hidden)).astype(np.float32)
        self.b1 = np.zeros(config.hidden, dtype=np.float32)
        self.w2 = gen.uniform(-a2, a2, (config.hidden, class_count)).astype(np.float32)
        self.b2 = np.zeros(class_count, dtype=np.float32)
        self.loss_curve: list = []

    def _forward(self, x: np.ndarray):
        hid = np.tanh(x @ self.w1 + self.b1)
        logits = hid @ self.w2 + self.b2
        shifted = logits - logits.max(axis=1, keepdims=True)
        expv = np.exp(shifted)
        probs = expv / expv.sum(axis=1, keepdims=True)
        return hid, probs

    def fit(self, x: np.ndarray, y: np.ndarray) -> "MLPClassifier":
        """Full-batch descent, one update per epoch. An epoch runs on whole
        (N, ·) arrays allocated once per fit: only the matrix products run
        per MLP_CHUNK-row chunk, since their bits depend on the row count,
        and the loss and bias-gradient sums are taken per chunk and added in
        chunk order. So the bits are those of running each chunk forward and
        backward in turn; everything else is elementwise or a row reduction,
        whose bits do not depend on how many rows it sees."""
        x = _features(x)
        y = np.ascontiguousarray(y)  # each epoch picks by it; a dataset's labels are strided
        if x.ndim != 2 or x.shape[0] != y.size:
            raise ParameterError(
                f"expected (N, D) features with N labels, got {x.shape} and {y.size}"
            )
        if y.size == 0:
            raise InputError("cannot fit a classifier on an empty dataset")
        if y.min() < 0 or y.max() >= self.class_count:
            raise InputError(
                f"labels must lie in [0, {self.class_count}), got range "
                f"[{y.min()}, {y.max()}]"
            )
        n = x.shape[0]
        rows = np.arange(n)
        onehot = np.zeros((n, self.class_count), dtype=np.float32)
        onehot[rows, y] = 1.0
        hid, dhid = (np.empty((n, self.b1.size), np.float32) for _ in range(2))
        probs, dlogits = (np.empty((n, self.class_count), np.float32) for _ in range(2))
        # the gradient accumulators and the products added into them
        dw1t, dw1t_c = (np.empty(self.w1.T.shape, np.float32) for _ in range(2))
        dw2, dw2_c = (np.empty_like(self.w2) for _ in range(2))
        chunks = [slice(start, start + MLP_CHUNK) for start in range(0, n, MLP_CHUNK)]
        self.loss_curve = []
        # a diverging rate overflows the weights; the non-finite loss that
        # follows is raised naming its epoch, so numpy's warnings add nothing.
        # A rate past float32's range casts to inf here, and diverges so.
        with np.errstate(over="ignore", invalid="ignore"):
            lr = np.float32(self.config.lr)
            for epoch in range(self.config.epochs):
                for c in chunks:
                    np.matmul(x[c], self.w1, out=hid[c])
                hid += self.b1
                np.tanh(hid, out=hid)
                # probs holds the logits until the softmax below
                for c in chunks:
                    np.matmul(hid[c], self.w2, out=probs[c])
                probs += self.b2
                # a max is exact in any order, and one ufunc call per class
                # beats max(axis=1) on a few columns
                probs -= functools.reduce(np.maximum, probs.T)[:, None]
                np.exp(probs, out=probs)
                probs /= probs.sum(axis=1, keepdims=True)
                # a per-chunk loop subtracts each chunk's sum of log p from
                # zero; rounding is symmetric, so adding up -log p is the same
                picked = np.maximum(probs[rows, y].astype(np.float64), 1e-300)
                loss = _chunked_sum(-np.log(picked)) / n
                if not np.isfinite(loss):
                    raise NumericDivergenceError(f"training loss non-finite at epoch {epoch}")
                self.loss_curve.append(float(loss))
                np.subtract(probs, onehot, out=dlogits)
                dlogits /= n
                dw2.fill(0.0)
                for c in chunks:
                    np.matmul(dlogits[c], self.w2.T, out=dhid[c])
                    dw2 += np.matmul(hid[c].T, dlogits[c], out=dw2_c)
                # hid, which nothing reads after dw2, becomes tanh's slope
                np.square(hid, out=hid)
                np.subtract(1.0, hid, out=hid)
                dhid *= hid
                dw1t.fill(0.0)
                for c in chunks:
                    dw1t += np.matmul(dhid[c].T, x[c], out=dw1t_c)
                dw1t *= lr
                self.w1 -= dw1t.T
                self.b1 -= lr * _chunked_sum(dhid)
                dw2 *= lr
                self.w2 -= dw2
                self.b2 -= lr * _chunked_sum(dlogits)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = _features(x)
        if x.ndim != 2 or x.shape[1] != self.w1.shape[0]:
            raise ShapeError(
                f"expected (N, {self.w1.shape[0]}) features as in training, got {x.shape}"
            )
        # weights that fit's errstate let grow huge can overflow a logit gap
        # to -inf, whose exp is 0, so the argmax still stands
        with np.errstate(over="ignore", invalid="ignore"):
            _, probs = self._forward(x)
        return np.argmax(probs, axis=1)


def train_classifier(dataset: LabeledDataset, config: ClassifierConfig) -> MLPClassifier:
    if np.unique(dataset.labels).size < 2:
        raise InputError("training set must contain at least two classes")
    flat = dataset.pixels.reshape(len(dataset), -1)
    model = MLPClassifier(input_dim=flat.shape[1], class_count=dataset.class_count, config=config)
    return model.fit(flat, dataset.labels)


def evaluate(model, dataset: LabeledDataset) -> Metrics:
    """Accuracy plus per-class recall; macro averages only present classes."""
    if len(dataset) == 0:
        raise InputError("cannot evaluate on an empty dataset")
    preds = model.predict(dataset.pixels.reshape(len(dataset), -1))
    labels = dataset.labels
    accuracy = float(np.mean(preds == labels))
    recalls = []
    present = []
    for c in range(dataset.class_count):
        mask = labels == c
        if not np.any(mask):
            recalls.append(None)
            continue
        recall = float(np.mean(preds[mask] == c))
        recalls.append(recall)
        present.append(recall)
    return Metrics(
        accuracy=accuracy,
        macro_accuracy=float(np.mean(present)),
        per_class_recall=recalls,
        absent_classes=any(r is None for r in recalls),
        train_loss_curve=list(getattr(model, "loss_curve", [])),
    )


def covering_radius(cover: np.ndarray, probe: np.ndarray) -> float:
    """Largest distance from any probe point to its nearest cover point.

    The one probes x covers array held is the prb @ cov.T product, turned into
    squared distances in place, RADIUS_BLOCK probe rows at a time. Each
    element gets the operations of |p|^2 + |c|^2 - 2 p.c taken on whole arrays,
    in the same order, so it has their bits; max(., 0) and sqrt are monotone,
    so they run on each probe's smallest square alone."""
    cov = np.asarray(cover, dtype=np.float64)
    prb = np.asarray(probe, dtype=np.float64)
    if cov.ndim != 2 or prb.ndim != 2:
        raise InputError(
            f"cover and probe must be (N, D) arrays, got {cov.shape} and {prb.shape}"
        )
    if cov.shape[0] == 0 or prb.shape[0] == 0:
        raise InputError("covering radius needs nonempty cover and probe sets")
    if cov.shape[1] != prb.shape[1]:
        raise InputError(
            f"dimension mismatch: cover {cov.shape[1]} vs probe {prb.shape[1]}"
        )
    if not (np.isfinite(cov).all() and np.isfinite(prb).all()):
        raise NumericInputError("cover and probe must hold finite values")
    try:
        with np.errstate(over="raise", invalid="raise"):
            prb_sq = np.sum(prb**2, axis=1)[:, None]
            cov_sq = np.sum(cov**2, axis=1)
            sq = prb @ cov.T
            sq *= 2.0
            for start in range(0, prb.shape[0], RADIUS_BLOCK):
                rows = slice(start, start + RADIUS_BLOCK)
                np.subtract(prb_sq[rows] + cov_sq, sq[rows], out=sq[rows])
    except FloatingPointError:
        raise NumericInputError("a squared norm or distance overflows float64") from None
    return float(np.sqrt(np.maximum(sq.min(axis=1), 0.0)).max())
