"""Tests for the downstream classifier harness and the covering radius."""

import hashlib
import math

import numpy as np
import pytest

import expandforge.backends as bk
import expandforge.evaluation as ev
from expandforge.errors import InputError, ParameterError, ShapeError


def _tiny_dataset(labels, class_names):
    images = [bk.Image(np.full((2, 2, 1), 0.25 + 0.1 * (i % 3))) for i in range(len(labels))]
    return bk.LabeledDataset(images=images, labels=np.array(labels), class_names=class_names)


class _FixedPredictor:
    def __init__(self, preds):
        self.preds = np.asarray(preds)

    def predict(self, x):
        return self.preds


# ----------------------------------------------------------------- config


def test_classifier_config_validation():
    for bad in (
        dict(hidden=0), dict(hidden=2.5), dict(hidden=True),
        dict(epochs=0), dict(epochs=2.5), dict(epochs=True),
        dict(lr=0.0), dict(lr=math.inf), dict(lr=math.nan),
        dict(seed=2.5), dict(seed=True), dict(seed="0"),
    ):
        with pytest.raises(ParameterError):
            ev.ClassifierConfig(**bad)
    assert ev.ClassifierConfig(seed=-7).seed == -7
    cfg = ev.ClassifierConfig()
    assert cfg.hidden == 32 and cfg.epochs == 100 and cfg.lr == 0.05


def test_classifier_lr_is_a_real():
    for lr in (True, "0.05", None):
        with pytest.raises(ParameterError):
            ev.ClassifierConfig(lr=lr)
    assert ev.ClassifierConfig(lr=1).lr == 1


# --------------------------------------------------------------- training


def test_two_class_toy_reaches_full_training_accuracy():
    # regression baseline measured at 1.0 on this seeded pair of classes
    two = bk.gen_toy_dataset(2, 25, 16, seed=7)
    model = ev.train_classifier(two, ev.ClassifierConfig(epochs=50))
    assert ev.evaluate(model, two).accuracy == 1.0


def test_loss_curve_nonincreasing_at_default_rate():
    data = bk.gen_toy_dataset(4, 25, 16, seed=7)
    model = ev.train_classifier(data, ev.ClassifierConfig())
    assert len(model.loss_curve) == 100
    assert np.all(np.diff(model.loss_curve) <= 1e-12)
    assert model.loss_curve[-1] < 0.5 * model.loss_curve[0]


def test_training_deterministic_in_seed():
    data = bk.gen_toy_dataset(3, 10, 12, seed=5)
    a = ev.train_classifier(data, ev.ClassifierConfig(seed=1))
    b = ev.train_classifier(data, ev.ClassifierConfig(seed=1))
    c = ev.train_classifier(data, ev.ClassifierConfig(seed=2))
    assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)
    assert not np.array_equal(a.w1, c.w1)
    x = data.stacked_flat()
    assert np.array_equal(a.predict(x), b.predict(x))


# sha256 over the repr of every loss-curve float, then the bytes of w1, b1,
# w2 and b2 after training. The in-process determinism test above and the
# 9-digit metrics file cannot see a last-bit drift; these pin it across
# refactors. Both shapes are past OpenBLAS's threading threshold, and the
# 1,000 x 1,024 one also has the width of the benchmark's bulk workload.
# The digests are facts about one numpy/BLAS build (numpy 2.4, OpenBLAS
# 0.3.31) on two or more BLAS threads: one thread sums the backward product
# x.T @ dhid in another order, and gives other digests.
MLP_FULL_PRECISION = {
    "600x256": (
        (4, 150, 16, 3), ev.ClassifierConfig(),
        "d8362aac5ca49e15fef0464c5fce947c89a1a8c9ec1057d2d93cb8e5090a1d98",
    ),
    "1000x1024": (
        (4, 250, 32, 3), ev.ClassifierConfig(epochs=5),
        "d9ee25ce7bdd49918331d9fe37964fd7baedcccba2e8dddf961c703e797a95e7",
    ),
}


@pytest.mark.parametrize("shape", sorted(MLP_FULL_PRECISION))
def test_training_at_full_precision(shape):
    toygen_args, config, expected = MLP_FULL_PRECISION[shape]
    model = ev.train_classifier(bk.gen_toy_dataset(*toygen_args), config)
    h = hashlib.sha256()
    for loss in model.loss_curve:
        h.update(repr(loss).encode("utf-8"))
        h.update(b"\n")
    for arr in (model.w1, model.b1, model.w2, model.b2):
        h.update(arr.tobytes())
    assert h.hexdigest() == expected


def test_stacked_flat_is_the_stack_of_per_image_flats():
    data = bk.gen_toy_dataset(3, 4, 12, seed=5)
    stacked = data.stacked_flat()
    expected = np.stack([img.flat() for img in data.images])
    assert stacked.dtype == np.float64 and stacked.flags.c_contiguous
    assert stacked.tobytes() == expected.tobytes()


def test_single_class_training_rejected():
    data = _tiny_dataset([0, 0, 0], ["a", "b"])
    with pytest.raises(InputError):
        ev.train_classifier(data, ev.ClassifierConfig())


def test_prediction_ties_break_toward_lowest_class():
    model = ev.MLPClassifier(input_dim=4, class_count=3, config=ev.ClassifierConfig())
    model.w1[:] = 0.0
    model.b1[:] = 0.0
    model.w2[:] = 0.0
    model.b2[:] = 0.0
    preds = model.predict(np.ones((5, 4)))
    assert np.all(preds == 0)


def test_prediction_rejects_features_of_another_width():
    data = _tiny_dataset([0, 1, 0, 1], ["a", "b"])
    model = ev.train_classifier(data, ev.ClassifierConfig(epochs=2))
    for bad in (np.ones((3, 5)), np.ones(4), np.ones((2, 2, 1))):
        with pytest.raises(ShapeError):
            model.predict(bad)
    wider = bk.LabeledDataset(
        images=[bk.Image(np.full((3, 3, 1), 0.5))] * 2, labels=np.array([0, 1]),
        class_names=["a", "b"],
    )
    with pytest.raises(ShapeError):
        ev.evaluate(model, wider)


# -------------------------------------------------------------- evaluation


def test_evaluate_hand_case_with_absent_class():
    # labels [0,0,1,2], preds [0,1,1,2] over 4 classes: accuracy 3/4,
    # recalls (1/2, 1, 1, absent), macro mean of present = 5/6
    data = _tiny_dataset([0, 0, 1, 2], ["a", "b", "c", "d"])
    metrics = ev.evaluate(_FixedPredictor([0, 1, 1, 2]), data)
    assert metrics.accuracy == 0.75
    assert metrics.per_class_recall == [0.5, 1.0, 1.0, None]
    assert metrics.absent_classes
    assert abs(metrics.macro_accuracy - 5.0 / 6.0) < 1e-12


def test_evaluate_perfect_and_constant_predictors():
    balanced = _tiny_dataset([0, 0, 1, 1], ["a", "b"])
    perfect = ev.evaluate(_FixedPredictor([0, 0, 1, 1]), balanced)
    assert perfect.accuracy == 1.0 and perfect.macro_accuracy == 1.0
    assert not perfect.absent_classes
    constant = ev.evaluate(_FixedPredictor([0, 0, 0, 0]), balanced)
    assert constant.accuracy == 0.5 and constant.macro_accuracy == 0.5


def test_evaluate_macro_on_imbalanced_set():
    # 9 of class 0, 1 of class 1, constant class-0 predictor:
    # accuracy 0.9 but macro (1.0 + 0.0) / 2 = 0.5
    data = _tiny_dataset([0] * 9 + [1], ["a", "b"])
    metrics = ev.evaluate(_FixedPredictor([0] * 10), data)
    assert metrics.accuracy == 0.9
    assert metrics.macro_accuracy == 0.5


# -------------------------------------------------------- covering radius


def test_covering_radius_hand_cases():
    cover = np.array([[0.0], [10.0]])
    probe = np.array([[4.0], [9.0]])
    assert ev.covering_radius(cover, probe) == 4.0
    origin = np.zeros((1, 3))
    probes = np.array([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]])
    assert abs(ev.covering_radius(origin, probes) - 3.0) < 1e-12
    assert ev.covering_radius(probes, probes) == 0.0


def test_covering_radius_superset_monotonicity():
    gen = np.random.Generator(np.random.Philox(key=11))
    for _ in range(25):
        cover = gen.normal(size=(12, 4))
        extra = gen.normal(size=(5, 4))
        probe = gen.normal(size=(20, 4))
        base = ev.covering_radius(cover, probe)
        grown = ev.covering_radius(np.vstack([cover, extra]), probe)
        assert grown <= base + 1e-12


def test_covering_radius_input_validation():
    with pytest.raises(InputError):
        ev.covering_radius(np.zeros((0, 3)), np.ones((2, 3)))
    with pytest.raises(InputError):
        ev.covering_radius(np.ones((2, 3)), np.zeros((0, 3)))
    with pytest.raises(InputError):
        ev.covering_radius(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(InputError):
        ev.covering_radius(np.ones(3), np.ones((2, 3)))


def test_evaluate_rejects_empty_dataset():
    data = _tiny_dataset([0, 1], ["a", "b"]).subset([])
    with pytest.raises(InputError):
        ev.evaluate(_FixedPredictor([]), data)
