"""Downstream evaluation: a small pixel-space classifier and a coverage probe.

The classifier is a one-hidden-layer tanh network trained by full-batch
gradient descent on raw pixels. It is deliberately plain: the point is to
compare datasets, so the learner must be deterministic and identical across
every expansion method being compared.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .backends import LabeledDataset
from .errors import (InputError, NumericDivergenceError, ParameterError, ShapeError, check_count,
                     check_real)
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


def _features(x) -> np.ndarray:
    """x as aligned, C-ordered float32 rows. A GIFX read gives a record-strided
    view that is neither, and matmul leaves BLAS for such an array."""
    return np.require(x, np.float32, ["C", "A"])


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
        """One pass over MLP_CHUNK-row chunks per epoch: each chunk runs
        forward and backward and adds its gradients in chunk order, then the
        epoch makes one update, so descent stays full-batch."""
        x = _features(x)
        y = np.asarray(y)
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
        onehot = np.zeros((n, self.class_count), dtype=np.float32)
        onehot[np.arange(n), y] = 1.0
        self.loss_curve = []
        # a diverging rate overflows the weights; the non-finite loss that
        # follows is raised naming its epoch, so numpy's warnings add nothing.
        # A rate past float32's range casts to inf here, and diverges so.
        with np.errstate(over="ignore", invalid="ignore"):
            lr = np.float32(self.config.lr)
            for epoch in range(self.config.epochs):
                loss = 0.0
                dw1t = np.zeros(self.w1.T.shape, dtype=np.float32)
                db1 = np.zeros_like(self.b1)
                dw2 = np.zeros_like(self.w2)
                db2 = np.zeros_like(self.b2)
                for start in range(0, n, MLP_CHUNK):
                    rows = slice(start, start + MLP_CHUNK)
                    xc, yc = x[rows], y[rows]
                    hid, probs = self._forward(xc)
                    picked = probs[np.arange(yc.size), yc].astype(np.float64)
                    loss -= np.log(np.maximum(picked, 1e-300)).sum()
                    dlogits = (probs - onehot[rows]) / n
                    dhid = (dlogits @ self.w2.T) * (1.0 - hid**2)
                    dw1t += dhid.T @ xc
                    db1 += dhid.sum(axis=0)
                    dw2 += hid.T @ dlogits
                    db2 += dlogits.sum(axis=0)
                loss /= n
                if not np.isfinite(loss):
                    raise NumericDivergenceError(f"training loss non-finite at epoch {epoch}")
                self.loss_curve.append(float(loss))
                self.w1 -= lr * dw1t.T
                self.b1 -= lr * db1
                self.w2 -= lr * dw2
                self.b2 -= lr * db2
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
    """Largest distance from any probe point to its nearest cover point."""
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
    sq = (
        np.sum(prb**2, axis=1)[:, None]
        + np.sum(cov**2, axis=1)[None, :]
        - 2.0 * (prb @ cov.T)
    )
    nearest = np.sqrt(np.maximum(sq, 0.0)).min(axis=1)
    return float(nearest.max())
