"""Tests for the downstream classifier harness and the covering radius."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import expandforge.backends as bk
import expandforge.evaluation as ev
from expandforge.errors import (InputError, NumericDivergenceError, NumericInputError,
                               ParameterError, ShapeError)


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
# refactors. The 600-row shape spans three chunks of MLP_CHUNK rows, the last
# one short, and the 1,000 x 1,024 one has the width of the benchmark's bulk
# workload. The digests are facts about one numpy/BLAS build (numpy 2.4,
# OpenBLAS 0.3.31); the fixed chunks make them the same on any BLAS thread
# count, which the test below checks at 1, 2 and 4.
MLP_FULL_PRECISION = {
    "600x256": (
        (4, 150, 16, 3), ev.ClassifierConfig(),
        "1483a169255aa938930df08174194dca67ea8d3e930c980b913fdaecc85e7c62",
    ),
    "1000x1024": (
        (4, 250, 32, 3), ev.ClassifierConfig(epochs=5),
        "ed84b51ed407a52c032399202c682dcaa4162a0a1f057fd6ce2795fb528a6234",
    ),
}


def _trained(shape):
    toygen_args, config, _ = MLP_FULL_PRECISION[shape]
    data = bk.gen_toy_dataset(*toygen_args)
    return ev.train_classifier(data, config), data


def _trained_digest(model) -> str:
    h = hashlib.sha256()
    for loss in model.loss_curve:
        h.update(repr(loss).encode("utf-8"))
        h.update(b"\n")
    for arr in (model.w1, model.b1, model.w2, model.b2):
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("shape", sorted(MLP_FULL_PRECISION))
def test_training_at_full_precision(shape):
    assert _trained_digest(_trained(shape)[0]) == MLP_FULL_PRECISION[shape][2]


def _thread_bits() -> list:
    """Both pins' digests, then the sha256 of the 1,000 x 1,024 pin's forward
    probabilities on its own features, which span four MLP_CHUNK chunks."""
    bits = {shape: _trained(shape) for shape in sorted(MLP_FULL_PRECISION)}
    model, data = bits["1000x1024"]
    _, probs = model._forward(ev._features(data.pixels.reshape(len(data), -1)))
    return [*(_trained_digest(m) for m, _ in bits.values()), hashlib.sha256(probs.tobytes()).hexdigest()]


def test_trained_bits_ignore_the_blas_thread_count():
    # OpenBLAS reads its thread count once, at start-up, so each count needs
    # its own child process; the three run side by side. predict runs one
    # product over all its rows, whose bits training's chunks do not pin
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import test_evaluation as t; "
            "print(*t._thread_bits())")
    paths = [str(Path(__file__).parent), str(Path(ev.__file__).parents[1])]
    children = [
        subprocess.Popen([sys.executable, "-c", code, *paths], stdout=subprocess.PIPE, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": str(threads)})
        for threads in (1, 2, 4)
    ]
    # every child is read before any assertion: an unread pipe would be
    # collected in a later test, where its ResourceWarning is an error
    outs = [child.communicate(timeout=60)[0] for child in children]
    expected = [MLP_FULL_PRECISION[shape][2] for shape in sorted(MLP_FULL_PRECISION)]
    assert [child.returncode for child in children] == [0, 0, 0]
    assert [out.split()[:2] for out in outs] == [expected] * 3
    assert len({out.split()[2] for out in outs}) == 1


def _per_chunk_fit(model, x, y):
    """The reference form of MLPClassifier.fit: each MLP_CHUNK-row chunk runs
    forward and backward in turn and adds its gradients in chunk order."""
    x, n = ev._features(x), len(y)
    onehot = np.zeros((n, model.class_count), dtype=np.float32)
    onehot[np.arange(n), y] = 1.0
    model.loss_curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        lr = np.float32(model.config.lr)
        for epoch in range(model.config.epochs):
            loss = 0.0
            dw1t = np.zeros(model.w1.T.shape, dtype=np.float32)
            db1 = np.zeros_like(model.b1)
            dw2 = np.zeros_like(model.w2)
            db2 = np.zeros_like(model.b2)
            for start in range(0, n, ev.MLP_CHUNK):
                rows = slice(start, start + ev.MLP_CHUNK)
                xc, yc = x[rows], y[rows]
                hid, probs = model._forward(xc)
                picked = probs[np.arange(yc.size), yc].astype(np.float64)
                loss -= np.log(np.maximum(picked, 1e-300)).sum()
                dlogits = (probs - onehot[rows]) / n
                dhid = (dlogits @ model.w2.T) * (1.0 - hid**2)
                dw1t += dhid.T @ xc
                db1 += dhid.sum(axis=0)
                dw2 += hid.T @ dlogits
                db2 += dlogits.sum(axis=0)
            loss /= n
            if not np.isfinite(loss):
                raise NumericDivergenceError(f"training loss non-finite at epoch {epoch}")
            model.loss_curve.append(float(loss))
            model.w1 -= lr * dw1t.T
            model.b1 -= lr * db1
            model.w2 -= lr * dw2
            model.b2 -= lr * db2
    return model


def _fit_outcome(fit, model, x, y) -> tuple:
    """The repr of every loss, the weights' bytes, and the divergence error's
    text or None, after fit(model, x, y)."""
    try:
        fit(model, x, y)
        error = None
    except NumericDivergenceError as err:
        error = str(err)
    arrays = (model.w1, model.b1, model.w2, model.b2)
    return [*map(repr, model.loss_curve), *(a.tobytes() for a in arrays)], error


@pytest.mark.parametrize("n", [1, 255, 256, 257, 512, 600, 1000])
def test_epoch_arrays_equal_the_per_chunk_loop(n):
    # the fit runs an epoch on whole arrays and only its products per chunk;
    # its bits must be those of the per-chunk loop on any platform, where the
    # full-precision pins above hold on one only. 1,024 features give the
    # products the bulk fit's width, at which a product over all rows has
    # other bits than the chunks' products
    gen = np.random.default_rng(n)
    x = gen.uniform(0.0, 1.0, (n, 1024)).astype(np.float32)
    for classes in (2, 3, 4, 8):
        y = gen.permutation(np.arange(n) % classes)
        for hidden in (1, 7, 32):
            config = ev.ClassifierConfig(hidden=hidden, epochs=3, lr=0.5, seed=n + hidden)
            new, ref = (_fit_outcome(fit, ev.MLPClassifier(1024, classes, config), x, y)
                        for fit in (ev.MLPClassifier.fit, _per_chunk_fit))
            assert new == ref and new[1] is None, (classes, hidden)
    # a diverging rate gives the same finite losses, then raises at the same
    # epoch; one row of one class cannot diverge
    config = ev.ClassifierConfig(hidden=7, epochs=8, lr=1e38)
    new, ref = (_fit_outcome(fit, ev.MLPClassifier(1024, 8, config), x, y)
                for fit in (ev.MLPClassifier.fit, _per_chunk_fit))
    assert new == ref and (new[1] is None) == (n == 1)


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


def test_prediction_with_huge_weights_raises_no_warning():
    # weights a diverging rate can leave behind while the loss is still
    # finite: logits of +-0.76 of float32's largest value, whose gap
    # overflows to -inf, which exp sends to 0, so the prediction still stands
    big = np.finfo(np.float32).max
    model = ev.MLPClassifier(input_dim=1, class_count=2, config=ev.ClassifierConfig(hidden=1))
    model.w1[:] = 1.0
    model.b1[:] = 0.0
    model.w2[:] = [[big, -big]]
    model.b2[:] = 0.0
    assert model.predict(np.array([[1.0], [-1.0]])).tolist() == [0, 1]


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


def test_covering_radius_refuses_non_finite_points_and_overflow():
    for cover, probe in (([[math.nan, 0.0]], [[0.0, 0.0]]), ([[0.0, 0.0]], [[0.0, math.inf]]),
                         ([[-math.inf, 0.0]], [[0.0, 0.0]])):
        with pytest.raises(NumericInputError, match="finite"):
            ev.covering_radius(cover, probe)
    # finite points whose squared distance overflows float64
    with pytest.raises(NumericInputError, match="overflows"):
        ev.covering_radius([[1e200, 0.0]], [[-1e200, 0.0]])


def _covering_radius_reference(cover, probe) -> float:
    """The radius as three whole probes x covers arrays, the bits
    covering_radius must keep."""
    cov = np.asarray(cover, dtype=np.float64)
    prb = np.asarray(probe, dtype=np.float64)
    sq = (
        np.sum(prb**2, axis=1)[:, None]
        + np.sum(cov**2, axis=1)[None, :]
        - 2.0 * (prb @ cov.T)
    )
    return float(np.sqrt(np.maximum(sq, 0.0)).min(axis=1).max())


def test_covering_radius_keeps_the_whole_array_bits():
    gen = np.random.Generator(np.random.Philox(key=29))
    shapes = [(int(gen.integers(1, 451)), int(gen.integers(1, 901)), int(gen.integers(1, 71)))
              for _ in range(40)]
    for probes, covers, dim in [*shapes, (400, 4200, 64)]:
        scale = 10.0 ** gen.uniform(-3, 3)
        cover = gen.normal(size=(covers, dim)) * scale
        probe = gen.normal(size=(probes, dim)) * scale
        # some probes are cover points: their smallest square cancels to about
        # 0, and can round below it, where max(., 0) acts
        shared = int(gen.integers(0, min(probes, covers) + 1))
        probe[:shared] = cover[gen.permutation(covers)[:shared]]
        want = _covering_radius_reference(cover, probe)
        assert ev.covering_radius(cover, probe).hex() == want.hex(), (probes, covers, dim)


def test_covering_radius_holds_one_probes_by_covers_array():
    gen = np.random.Generator(np.random.Philox(key=30))
    cover, probe = gen.normal(size=(4200, 64)), gen.normal(size=(400, 64))
    product = probe.shape[0] * cover.shape[0] * 8
    tracemalloc.start()
    try:
        ev.covering_radius(cover, probe)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * product, (peak, product)


def test_evaluate_rejects_empty_dataset():
    data = _tiny_dataset([0, 1], ["a", "b"]).subset([])
    with pytest.raises(InputError):
        ev.evaluate(_FixedPredictor([]), data)
