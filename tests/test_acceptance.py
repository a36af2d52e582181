"""Release acceptance checks, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Each test asserts its property at the stated tolerance and its
wall-clock budget. The downstream benchmark is the default toy setup: 4
classes, 25 seeds per class, 5x expansion, and a held-out 200-sample test
set, with medians taken over 5 global seeds.
"""

import csv
import json
import math
import statistics
import struct
import time
from contextlib import contextmanager

import numpy as np

import expandforge.augment as ag
import expandforge.backends as bk
import expandforge.cli as cli
import expandforge.evaluation as ev
import expandforge.guidance as gd
import expandforge.latentmath as lm
import expandforge.pipeline as pl
from expandforge.errors import FormatError
from expandforge.rng import RngStream

GSEEDS = (0, 1, 2, 3, 4)
TEST_SEED = 9999
CLASSES = 4
PER_CLASS = 25
SIDE = 16
RATIO = 5

ABLATIONS = (
    ("none", (0.0, 0.0, 0.0)),
    ("con", (1.0, 0.0, 0.0)),
    ("ent", (0.0, 1.0, 0.0)),
    ("div", (0.0, 0.0, 1.0)),
    ("con+ent", (1.0, 1.0, 0.0)),
    ("con+ent+div", (1.0, 1.0, 1.0)),
)


@contextmanager
def _budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def _test_set():
    return bk.gen_toy_dataset(CLASSES, 50, SIDE, seed=TEST_SEED)


def _fit_bundle(data):
    codec = bk.fit_linear_codec(data, latent_dim=32, latent_shape=(4, 8))
    embedder = bk.make_embedder(data.image_shape, 64, 0)
    head = bk.fit_prototype_head(data, embedder, tau=1.0)
    return pl.BackendBundle(codec=codec, embedder=embedder, head=head)


def _accuracy(train_set, test_set):
    model = ev.train_classifier(train_set, ev.ClassifierConfig(seed=0))
    return ev.evaluate(model, test_set).accuracy


def _benchmark_run(method, gseed, weights=(1.0, 1.0, 1.0), noise_mode=None):
    train = bk.gen_toy_dataset(CLASSES, PER_CLASS, SIDE, seed=gseed)
    bundle = _fit_bundle(train)
    config = pl.ExpansionConfig(ratio_k=RATIO, weights=weights, noise_mode=noise_mode)
    expanded, _manifest = pl.expand_dataset(train, method, config, bundle, gseed)
    return train, expanded


def _benchmark_accuracy(method, gseed, test_set, **kw):
    _train, expanded = _benchmark_run(method, gseed, **kw)
    return _accuracy(expanded, test_set)


def test_criterion_01_kernel_exactness():
    with _budget(1.0):
        tol = 1e-6
        assert np.allclose(lm.softmax([0.0, 0.0]), [0.5, 0.5], rtol=0, atol=tol)
        assert np.allclose(
            lm.softmax([math.log(2.0), 0.0]), [2 / 3, 1 / 3], rtol=0, atol=tol)
        assert np.allclose(lm.softmax([1.0, 1.0, 1.0]), [1 / 3] * 3, rtol=0, atol=tol)
        assert abs(lm.entropy([1.0, 0.0])) <= tol
        assert abs(lm.entropy([0.01] * 100) - math.log(100.0)) <= tol
        assert abs(lm.entropy([0.9, 0.1]) - 0.325082973) <= tol
        assert abs(lm.kl_divergence([0.3, 0.3, 0.4], [0.3, 0.3, 0.4])) <= tol
        assert abs(lm.kl_divergence([1.0, 0.0], [0.5, 0.5]) - math.log(2.0)) <= tol
        assert abs(lm.kl_divergence([0.75, 0.25], [0.5, 0.5]) - 0.130812036) <= tol
        assert abs(lm.cosine([0.3, -1.2, 0.5], [0.3, -1.2, 0.5]) - 1.0) <= tol
        assert abs(lm.cosine([1.0, 0.0], [0.0, 1.0])) <= tol
        assert abs(lm.cosine([1.0, 1.0], [1.0, 0.0]) - 1 / math.sqrt(2)) <= tol

        f = lm.Latent([[1.0, 2.0]])
        still = lm.perturb_and_project(
            f, lm.PerturbationParams(z=[[0.0, 0.0]], b=[[0.0, 0.0]]), 1.0)
        assert np.array_equal(still.values, f.values)
        params = lm.PerturbationParams(z=[[0.5, -0.25]], b=[[0.1, 0.0]])
        wide = lm.perturb_and_project(f, params, math.inf)
        assert np.allclose(wide.values, [[1.6, 1.5]], rtol=0, atol=tol)
        tight = lm.perturb_and_project(f, params, 0.2)
        assert np.allclose(tight.values, [[1.2, 1.8]], rtol=0, atol=tol)

        gen = np.random.Generator(np.random.Philox(key=101))
        for _ in range(1000):
            t = int(gen.integers(1, 5))
            d = int(gen.integers(1, 9))
            base = lm.Latent(gen.normal(0.0, 2.0, (t, d)))
            p = lm.PerturbationParams(
                z=gen.uniform(-1.5, 1.5, (t, d)), b=gen.normal(0.0, 2.0, (t, d)))
            eps = float(gen.uniform(0.0, 3.0))
            out = lm.perturb_and_project(base, p, eps)
            assert np.max(np.abs(out.values - base.values)) <= eps


def test_criterion_02_gradient_fidelity():
    with _budget(10.0):
        gen = np.random.Generator(np.random.Philox(key=202))
        worst = 0.0
        for _ in range(100):
            t = int(gen.integers(1, 5))
            d = int(gen.integers(2, 32 // t + 1))
            c = int(gen.integers(2, 9))
            k = int(gen.integers(1, 4))
            tau = float(gen.uniform(0.5, 2.0))
            weights = tuple(float(w) for w in gen.uniform(0.25, 1.75, 3))
            f = lm.Latent(gen.normal(0.0, 1.2, (t, d)))
            protos = gen.normal(0.0, 1.0, (c, t * d))
            protos /= np.linalg.norm(protos, axis=1, keepdims=True)
            seed_pred = lm.classify(f.flat(), protos, tau)
            z0 = gen.uniform(-0.3, 0.3, (k, t, d))
            b0 = gen.normal(0.0, 0.3, (k, t, d))
            packed0 = np.concatenate([z0.ravel(), b0.ravel()])

            def objective(packed, k=k, t=t, d=d, f=f, protos=protos, tau=tau,
                          seed_pred=seed_pred, weights=weights):
                z = packed[: k * t * d].reshape(k, t, d)
                b = packed[k * t * d:].reshape(k, t, d)
                variants, preds = [], []
                for i in range(k):
                    v = lm.perturb_and_project(
                        f, lm.PerturbationParams(z=z[i], b=b[i]), math.inf)
                    variants.append(v)
                    preds.append(lm.classify(v.flat(), protos, tau))
                return lm.guidance_objective(seed_pred, preds, variants, weights).total

            fd = lm.objective_gradient_fd(objective, packed0, h=1e-5)
            variants = [
                lm.perturb_and_project(
                    f, lm.PerturbationParams(z=z0[i], b=b0[i]), math.inf)
                for i in range(k)
            ]
            _, div_grads = lm.diversity_score_grad([v.values for v in variants])
            gz, gb = [], []
            for i, v in enumerate(variants):
                pred, jac = lm.classify_grad(v.flat(), protos, tau)
                g = lm.consistency_entropy_grad(
                    pred, jac, tau, seed_pred.argmax_class, weights[0], weights[1]
                ).reshape(t, d)
                g = g + weights[2] * div_grads[i]
                gz.append(g * f.values)
                gb.append(g)
            analytic = np.concatenate(
                [np.concatenate([a.ravel() for a in gz]),
                 np.concatenate([a.ravel() for a in gb])])
            rel = float(np.linalg.norm(fd - analytic)
                        / max(np.linalg.norm(fd), 1e-12))
            worst = max(worst, rel)
            assert rel <= 1e-4, f"relative gradient error {rel:.2e}"
        assert worst <= 1e-4


def test_criterion_03_optimization_soundness():
    with _budget(30.0):
        data = bk.gen_toy_dataset(CLASSES, 50, SIDE, seed=0)
        bundle = _fit_bundle(data)
        config = pl.ExpansionConfig()
        improved = 0
        for j, img in enumerate(data.images):
            stream = RngStream.root(0).child("accept3", j)
            _imgs, _recs, trace = gd.expand_seed_latent_flow(
                img, bundle.codec, bundle.embedder, bundle.head, config, stream)
            improved += trace.objective[-1] >= trace.objective[0]
        assert improved >= 190, f"objective improved on only {improved}/200 seeds"

        zero_cfg = pl.ExpansionConfig(epsilon=0.0)
        for j, img in enumerate(data.images):
            want = bundle.codec.decode(bundle.codec.encode(img)).pixels
            stream = RngStream.root(1).child("accept3z", j)
            imgs, _recs, _trace = gd.expand_seed_latent_flow(
                img, bundle.codec, bundle.embedder, bundle.head, zero_cfg, stream)
            for im in imgs:
                assert np.array_equal(im.pixels, want)


def test_criterion_04_guided_beats_random():
    with _budget(180.0):
        test_set = _test_set()
        med = {}
        for method in ("randlite", "selective_randlite", "gif_latent"):
            accs = [_benchmark_accuracy(method, g, test_set) for g in GSEEDS]
            med[method] = statistics.median(accs)
        detail = ", ".join(f"{m} {v:.4f}" for m, v in med.items())
        assert med["selective_randlite"] > med["randlite"], detail
        assert med["gif_latent"] > med["randlite"], detail


def test_criterion_05_diversity_term():
    with _budget(180.0):
        test_set = _test_set()
        win, total = 0, 0
        accs_on, accs_off = [], []
        for g in GSEEDS:
            train, exp_on = _benchmark_run("gif_latent", g, weights=(1.0, 1.0, 1.0))
            _t, exp_off = _benchmark_run("gif_latent", g, weights=(1.0, 1.0, 0.0))
            accs_on.append(_accuracy(exp_on, test_set))
            accs_off.append(_accuracy(exp_off, test_set))
            n = len(train)
            for j in range(n):
                v_on = exp_on.images[n + j * RATIO: n + (j + 1) * RATIO]
                v_off = exp_off.images[n + j * RATIO: n + (j + 1) * RATIO]
                win += _pairwise_mean(v_on) > _pairwise_mean(v_off)
                total += 1
        assert win >= 0.9 * total, f"diversity spread larger in only {win}/{total}"
        assert statistics.median(accs_on) >= statistics.median(accs_off)


def _pairwise_mean(images):
    flats = [img.pixels.astype(np.float64).ravel() for img in images]
    dists = [
        float(np.linalg.norm(flats[i] - flats[j]))
        for i in range(len(flats)) for j in range(i + 1, len(flats))
    ]
    return float(np.mean(dists)) if dists else 0.0


def test_criterion_06_guidance_ablation_cli(tmp_path):
    with _budget(600.0):
        test_path = tmp_path / "test.gifx"
        assert cli.main([
            "toygen", "--classes", str(CLASSES), "--per-class", "50",
            "--size", str(SIDE), "--seed", str(TEST_SEED), "--out", str(test_path),
        ]) == 0
        for g in GSEEDS:
            assert cli.main([
                "toygen", "--classes", str(CLASSES), "--per-class", str(PER_CLASS),
                "--size", str(SIDE), "--seed", str(g),
                "--out", str(tmp_path / f"train{g}.gifx"),
            ]) == 0
        representative = []
        for name, (w_con, w_ent, w_div) in ABLATIONS:
            runs = []
            for g in GSEEDS:
                exp_path = tmp_path / f"exp_{name}_{g}.gifx"
                assert cli.main([
                    "expand", "--in", str(tmp_path / f"train{g}.gifx"),
                    "--method", "gif_latent", "--ratio", str(RATIO),
                    "--lambda-con", str(w_con), "--lambda-ent", str(w_ent),
                    "--lambda-div", str(w_div), "--seed", str(g),
                    "--out", str(exp_path),
                ]) == 0
                met_path = tmp_path / f"metrics_{name}_{g}.json"
                assert cli.main([
                    "traineval", "--train", str(exp_path), "--test", str(test_path),
                    "--seed", "0", "--method", name, "--ratio", str(RATIO),
                    "--out", str(met_path),
                ]) == 0
                runs.append((json.loads(met_path.read_text())["accuracy"], met_path))
            med = statistics.median(acc for acc, _ in runs)
            # the median of five runs is one of them; report that run's file
            rep = min(runs, key=lambda r: (abs(r[0] - med), str(r[1])))
            representative.append(str(rep[1]))
        csv_path = tmp_path / "ablation.csv"
        assert cli.main(["report", "--metrics", *representative,
                         "--out", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + len(ABLATIONS)
        acc_of = {row["method"]: float(row["accuracy"])
                  for row in csv.DictReader(lines)}
        assert set(acc_of) == {name for name, _ in ABLATIONS}
        for single in ("con", "ent", "div"):
            assert acc_of["con+ent+div"] >= acc_of[single], acc_of


def test_criterion_07_channel_noise_mode():
    with _budget(180.0):
        test_set = _test_set()
        med = {}
        for mode in ("channel", "full"):
            accs = [
                _benchmark_accuracy("gif_latent", g, test_set, noise_mode=mode)
                for g in GSEEDS
            ]
            med[mode] = statistics.median(accs)
        assert med["channel"] >= med["full"], med


def _skewed_set(seed):
    """Benchmark set with every tenth seed replaced by near-featureless gray
    noise, whose augmented candidates rarely keep the class or gain entropy."""
    data = bk.gen_toy_dataset(CLASSES, PER_CLASS, SIDE, seed=seed)
    gen = RngStream(("skew", int(seed))).generator()
    images = list(data.images)
    for j in range(0, len(images), 10):
        noise = 0.5 + gen.uniform(-0.02, 0.02, size=(SIDE, SIDE, 1))
        images[j] = bk.Image(noise.astype(np.float32))
    return bk.LabeledDataset(
        images=images, labels=list(data.labels), class_names=list(data.class_names))


def test_criterion_08_selection_modes():
    with _budget(120.0):
        test_set = _test_set()
        accs = {"sample_wise": [], "sample_agnostic": []}
        checked_histogram = False
        for g in GSEEDS:
            train = _skewed_set(g)
            embedder = bk.make_embedder(train.image_shape, 64, 0)
            head = bk.fit_prototype_head(train, embedder, tau=1.0)
            for mode in accs:
                stream = RngStream.root(g).child("accept8", mode)
                picks, records = ag.selective_expand(
                    train, ag.rand_lite, embedder, head, RATIO, stream, mode=mode)
                counts = np.zeros(len(train), dtype=int)
                for rec in records:
                    counts[rec.seed_index] += 1
                if mode == "sample_wise":
                    assert np.all(counts == RATIO), "sample_wise must be uniform"
                elif not checked_histogram:
                    assert counts.var() > 0.0, "agnostic histogram has no spread"
                    assert np.any(counts == 0), "agnostic produced no starved seed"
                    checked_histogram = True
                images = list(train.images) + list(picks)
                labels = list(train.labels) + [
                    train.labels[r.seed_index] for r in records]
                grown = bk.LabeledDataset(
                    images=images, labels=labels, class_names=list(train.class_names))
                accs[mode].append(_accuracy(grown, test_set))
        assert checked_histogram
        wise = statistics.median(accs["sample_wise"])
        agnostic = statistics.median(accs["sample_agnostic"])
        assert wise >= agnostic, (wise, agnostic)


def test_criterion_09_determinism_and_formats():
    with _budget(30.0):
        data = bk.gen_toy_dataset(CLASSES, PER_CLASS, SIDE, seed=0)
        bundle = _fit_bundle(data)
        config = pl.ExpansionConfig(ratio_k=RATIO)
        outputs = []
        for _ in range(2):
            expanded, manifest = pl.expand_dataset(
                data, "gif_latent", config, bundle, 0)
            outputs.append(
                (pl.dataset_bytes(expanded), pl.canonical_json(manifest.as_dict())))
        assert outputs[0] == outputs[1], "same-seed reruns differ"
        # each seed's variants depend on the seed alone, not on what else is
        # expanded with it: expanding each half on its own gives equal bytes
        n = len(data)
        for half in (range(n // 2), range(n // 2, n)):
            part, _m = pl.expand_dataset(data.subset(half), "gif_latent", config, bundle, 0)
            for local, j in enumerate(half):
                for i in range(RATIO):
                    got = part.images[len(half) + local * RATIO + i].pixels
                    want = expanded.images[n + j * RATIO + i].pixels
                    assert got.tobytes() == want.tobytes(), "split expansion differs"

        blob = outputs[0][0]
        round_tripped = pl.dataset_from_bytes(blob)
        assert pl.dataset_bytes(round_tripped) == blob

        bad_magic = bytearray(blob)
        bad_magic[0:4] = b"JUNK"
        _assert_rejected(bytes(bad_magic))
        _assert_rejected(blob[: len(blob) - 8])
        name_block = sum(
            4 + len(n.encode("utf-8")) for n in round_tripped.class_names)
        bad_label = bytearray(blob)
        struct.pack_into("<I", bad_label, 28 + name_block, 1999)
        _assert_rejected(bytes(bad_label))


def _assert_rejected(blob):
    try:
        pl.dataset_from_bytes(blob)
    except FormatError:
        return
    raise AssertionError("corrupted container was accepted")


def test_criterion_10_covering_radius():
    with _budget(10.0):
        gen = np.random.Generator(np.random.Philox(key=1010))
        for _ in range(100):
            dim = int(gen.integers(2, 9))
            cover = gen.normal(size=(int(gen.integers(1, 16)), dim))
            grown = np.vstack([cover, gen.normal(size=(int(gen.integers(1, 9)), dim))])
            probe = gen.normal(size=(int(gen.integers(1, 16)), dim))
            assert ev.covering_radius(grown, probe) <= ev.covering_radius(cover, probe)

        data = bk.gen_toy_dataset(CLASSES, PER_CLASS, SIDE, seed=0)
        bundle = _fit_bundle(data)
        probe = np.stack([bundle.embedder.embed(img) for img in _test_set().images])
        base = ev.covering_radius(
            np.stack([bundle.embedder.embed(img) for img in data.images]), probe)
        for method in ("randlite", "gif_latent"):
            config = pl.ExpansionConfig(ratio_k=RATIO)
            expanded, _m = pl.expand_dataset(data, method, config, bundle, 0)
            cover = np.stack([bundle.embedder.embed(img) for img in expanded.images])
            assert ev.covering_radius(cover, probe) <= base
