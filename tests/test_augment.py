"""Tests for augmentation baselines and selective expansion.

The selection tests use a stub embedder/head pair whose predictions are a
fixed function of two pixel slots, so qualification and ranking outcomes
are derivable by hand instead of depending on the toy renderer.
"""

import itertools

import numpy as np
import pytest

import expandforge.augment as ag
import expandforge.backends as bk
from expandforge.errors import ParameterError, ShapeError
from expandforge.rng import RngStream


def _stream(*parts):
    return RngStream.root(0).child("aug", *parts)


def _const_image(value=0.9, side=16, channels=1):
    return bk.Image(np.full((side, side, channels), value))


# ------------------------------------------------------------------ cutout


def test_cutout_masks_exact_square():
    img = _const_image(0.9, side=16)
    out = ag.cutout(img, 0.5, _stream("co"))
    changed = out.pixels != img.pixels
    # side = round(0.5 * 16) = 8, so exactly 64 pixels flip to 0.5
    assert int(changed.sum()) == 64
    ys, xs, _ = np.nonzero(changed)
    assert ys.max() - ys.min() + 1 == 8 and xs.max() - xs.min() + 1 == 8
    assert np.all(out.pixels[changed] == 0.5)
    assert np.array_equal(out.pixels[~changed], img.pixels[~changed])


def test_cutout_full_frac_blanks_everything():
    out = ag.cutout(_const_image(0.9, side=8), 1.0, _stream("co-full"))
    assert np.all(out.pixels == 0.5)


def test_cutout_deterministic():
    img = _const_image(0.8, side=12)
    a = ag.cutout(img, 0.4, _stream("co-det"))
    b = ag.cutout(img, 0.4, _stream("co-det"))
    c = ag.cutout(img, 0.4, _stream("co-det-alt"))
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_cutout_zero_frac_is_identity():
    img = _const_image(0.9, side=16)
    out = ag.cutout(img, 0.0, _stream("co-zero"))
    assert np.array_equal(out.pixels, img.pixels)
    # a frac whose side rounds to zero is also an identity
    tiny = ag.cutout(img, 0.01, _stream("co-tiny"))
    assert np.array_equal(tiny.pixels, img.pixels)


def test_cutout_rejects_out_of_range_fracs():
    img = _const_image()
    for frac in (-0.2, 1.5):
        with pytest.raises(ParameterError):
            ag.cutout(img, frac, _stream("co-bad"))


def test_augment_sizes_and_fractions_follow_one_rule():
    img = _const_image()
    for frac in (True, "0.4", None):
        with pytest.raises(ParameterError):
            ag.cutout(img, frac, _stream("co-type"))
    for period, keep in ((4.0, 0.5), (True, 0.5), (8, True)):
        with pytest.raises(ParameterError):
            ag.gridmask(img, period, keep)
    data = bk.gen_toy_dataset(2, 1, 16, seed=7)
    embedder = bk.make_embedder(data.image_shape, 16, seed=0)
    head = bk.fit_prototype_head(data, embedder)
    for quota, budget in ((2.5, None), (True, None), (2, 4.5)):
        with pytest.raises(ParameterError):
            ag.selective_expand(data, ag.rand_lite, embedder, head, quota, _stream("sel-type"),
                                candidate_budget=budget)


# ---------------------------------------------------------------- gridmask


def test_gridmask_reference_count():
    # 16x16, period 8, keep 0.5: holes are 4x4 at each of the 2x2 cell
    # corners per axis pair, 8 masked rows x 8 masked cols = 64 pixels
    img = _const_image(0.9, side=16)
    out = ag.gridmask(img, period=8, keep_ratio=0.5, phase=(0, 0))
    changed = out.pixels != img.pixels
    assert int(changed.sum()) == 64
    assert np.all(out.pixels[changed] == 0.5)
    yy = (np.arange(16)[:, None]) % 8 < 4
    xx = (np.arange(16)[None, :]) % 8 < 4
    assert np.array_equal(changed[:, :, 0], yy & xx)


def test_gridmask_phase_shifts_the_grid():
    img = _const_image(0.9, side=16)
    base = ag.gridmask(img, 8, 0.5, phase=(0, 0))
    moved = ag.gridmask(img, 8, 0.5, phase=(3, 5))
    assert int((moved.pixels != img.pixels).sum()) == 64
    rolled = np.roll(base.pixels, shift=(-3, -5), axis=(0, 1))
    assert np.array_equal(moved.pixels, rolled)


def test_gridmask_keep_one_is_identity():
    img = _const_image(0.7, side=12)
    out = ag.gridmask(img, 4, 1.0)
    assert np.array_equal(out.pixels, img.pixels)


def test_gridmask_rejects_bad_params():
    img = _const_image()
    with pytest.raises(ParameterError):
        ag.gridmask(img, 1, 0.5)
    with pytest.raises(ParameterError):
        ag.gridmask(img, 8, 0.0)
    with pytest.raises(ParameterError):
        ag.gridmask(img, 8, 1.5)
    with pytest.raises(ParameterError):
        ag.gridmask(img, 8, 0.5, phase=(1,))


# --------------------------------------------------------------- rand_lite


def test_translate_paste_arithmetic():
    px = np.arange(9, dtype=np.float64).reshape(3, 3, 1) / 10.0
    out = ag._translate(px, 1, 0)
    assert np.all(out[0] == 0.5)
    assert np.array_equal(out[1:], px[:2])
    out = ag._translate(px, 0, -1)
    assert np.all(out[:, 2] == 0.5)
    assert np.array_equal(out[:, :2], px[:, 1:])


def test_rand_lite_deterministic_and_bounded():
    data = bk.gen_toy_dataset(4, 2, 16, seed=3)
    img = data.images[0]
    a = ag.rand_lite(img, _stream("rl"))
    b = ag.rand_lite(img, _stream("rl"))
    assert np.array_equal(a.pixels, b.pixels)
    assert a.pixels.shape == img.pixels.shape
    assert np.all(a.pixels >= 0.0) and np.all(a.pixels <= 1.0)
    outputs = [ag.rand_lite(img, _stream("rl", i)) for i in range(10)]
    distinct = sum(
        not np.array_equal(out.pixels, img.pixels) for out in outputs
    )
    assert distinct >= 8


def test_rand_lite_requires_square_images():
    img = bk.Image(np.full((8, 12, 1), 0.5))
    with pytest.raises(ShapeError):
        ag.rand_lite(img, _stream("rl-rect"))


# ------------------------------------------------------ selective expansion


class _StubAugmenter:
    """Writes one uniform draw into pixel (0, 0, 0) and leaves the rest."""

    def __call__(self, image, rng_stream):
        px = image.pixels.astype(np.float64).copy()
        px[0, 0, 0] = rng_stream.generator().uniform()
        return bk.Image(px)


class _StubEmbedder:
    """Embeds each image as its pixels (0, 0, 0) and (1, 1, 0)."""

    def embed_images(self, images):
        return np.array(
            [[img.pixels[0, 0, 0], img.pixels[1, 1, 0]] for img in images], dtype=np.float64
        )


class _StubHead:
    """Marker pixel selects the regime: marker 0 seeds qualify more with
    larger u (entropy rises toward uniform), marker 1 seeds never qualify
    (entropy falls as u grows)."""

    def predict_rows(self, e):
        u, marker = e[..., 0], e[..., 1]
        p = np.where(marker < 0.5, 0.9 - 0.4 * u, 0.35 - 0.1 * u)
        return np.stack([p, 1.0 - p], axis=-1)


def _stub_seeds():
    # the noise slot starts at exactly zero so every candidate's draw moves
    # the stub prediction in the intended direction
    a = np.full((4, 4, 1), 0.2)
    a[0, 0, 0] = 0.0
    b = a.copy()
    b[1, 1, 0] = 1.0
    return [bk.Image(a), bk.Image(b)]


def _stub_u(stream, j, c):
    return stream.child("seed", j, "cand", c).generator().uniform()


def test_sample_wise_fills_exact_quota_per_seed():
    seeds = _stub_seeds()
    stream = _stream("sw")
    images, records = ag.selective_expand(
        seeds, _StubAugmenter(), _StubEmbedder(), _StubHead(), 2, stream,
        mode="sample_wise", candidate_budget=6,
    )
    assert len(images) == 4 and len(records) == 4
    assert [r.seed_index for r in records] == [0, 0, 1, 1]
    # seed 0 candidates all qualify; top 2 are the largest noise draws
    u0 = sorted((_stub_u(stream, 0, c) for c in range(6)), reverse=True)
    picked0 = sorted(img.pixels[0, 0, 0] for img in images[:2])
    assert np.allclose(sorted(u0[:2]), picked0)
    assert all(r.qualified for r in records[:2])
    # seed 1 has no qualified candidates: consistent ones pad the quota,
    # best (least negative) gain first, which means the smallest draws
    u1 = sorted(_stub_u(stream, 1, c) for c in range(6))
    picked1 = sorted(img.pixels[0, 0, 0] for img in images[2:])
    assert np.allclose(u1[:2], picked1)
    assert all(r.consistent and not r.qualified for r in records[2:])


def test_sample_agnostic_can_starve_a_seed():
    seeds = _stub_seeds()
    stream = _stream("sa")
    images, records = ag.selective_expand(
        seeds, _StubAugmenter(), _StubEmbedder(), _StubHead(), 2, stream,
        mode="sample_agnostic", candidate_budget=6,
    )
    assert len(images) == 4
    # the global pool ranks seed 0's qualified candidates above everything
    # from seed 1, so seed 1 gets nothing
    assert [r.seed_index for r in records] == [0, 0, 0, 0]
    u0 = sorted((_stub_u(stream, 0, c) for c in range(6)), reverse=True)
    picked = sorted(img.pixels[0, 0, 0] for img in images)
    assert np.allclose(sorted(u0[:4]), picked)
    assert all(r.qualified for r in records)


def test_selective_expand_deterministic():
    seeds = _stub_seeds()
    run = lambda s: ag.selective_expand(
        seeds, _StubAugmenter(), _StubEmbedder(), _StubHead(), 2, s,
        candidate_budget=6,
    )
    images_a, _ = run(_stream("det"))
    images_b, _ = run(_stream("det"))
    images_c, _ = run(_stream("det-alt"))
    for a, b in zip(images_a, images_b):
        assert np.array_equal(a.pixels, b.pixels)
    assert any(not np.array_equal(a.pixels, c.pixels)
               for a, c in zip(images_a, images_c))


def test_selective_expand_validation():
    seeds = _stub_seeds()
    args = (_StubAugmenter(), _StubEmbedder(), _StubHead())
    with pytest.raises(ParameterError):
        ag.selective_expand(seeds, *args, 0, _stream("v"))
    with pytest.raises(ParameterError):
        ag.selective_expand(seeds, *args, 2, _stream("v"), mode="greedy")
    with pytest.raises(ParameterError):
        ag.selective_expand(seeds, *args, 4, _stream("v"), candidate_budget=3)
    with pytest.raises(ParameterError):
        ag.selective_expand([], *args, 2, _stream("v"))


def test_selective_expand_on_real_backends():
    data = bk.gen_toy_dataset(4, 25, 16, seed=7)
    embedder = bk.make_embedder(data.images[0].pixels.shape, 64, seed=0)
    exemplars = bk.gen_toy_dataset(4, 8, 16, seed=101)
    head = bk.fit_prototype_head(exemplars, embedder)
    seeds = [data.images[i] for i in (0, 30, 60)]
    images, records = ag.selective_expand(
        seeds, ag.rand_lite, embedder, head, 2, _stream("real")
    )
    assert len(images) == 6
    assert [r.seed_index for r in records] == [0, 0, 1, 1, 2, 2]
    for img in images:
        assert img.pixels.shape == (16, 16, 1)
        assert np.all(img.pixels >= 0.0) and np.all(img.pixels <= 1.0)


def _per_candidate_selection(seeds, augmenter, embedder, head, quota_k, rng_stream, mode,
                             budget):
    """selective_expand as it was before it scored each seed's pool as one
    stack: one embed and one head.predict per image, and gains from the
    masked entropy sum, which gives -0.0 for a one-hot row."""
    def entropy(p):
        q = p[p > 0.0]
        return float(-(q * np.log(q)).sum())

    pool = []
    for j, seed in enumerate(seeds):
        seed_pred = head.predict(embedder.embed_flat(seed.flat()))
        seed_entropy = entropy(seed_pred.probs)
        target = seed_pred.argmax_class
        for c in range(budget):
            stream = rng_stream.child("seed", j, "cand", c)
            img = augmenter(seed, stream)
            embedding = embedder.embed_flat(img.flat())
            pred = head.predict(embedding)
            gain = entropy(pred.probs) - seed_entropy
            consistent = pred.argmax_class == target
            record = ag.SelectionRecord(
                j, c, stream.id, float(pred.probs[target]), gain, consistent,
                consistent and gain > 0.0, embedding,
            )
            pool.append((record, img))
    if mode == "sample_wise":
        selected = []
        for j in range(len(seeds)):
            mine = sorted(
                (p for p in pool if p[0].seed_index == j), key=lambda p: ag._rank_key(p[0])
            )
            selected.extend(mine[:quota_k])
    else:
        ranked = sorted((p for p in pool if p[0].qualified), key=lambda p: ag._rank_key(p[0]))
        selected = ranked[: quota_k * len(seeds)]
        selected.sort(key=lambda p: (p[0].seed_index, ag._rank_key(p[0])))
    return [img for _, img in selected], [rec for rec, _ in selected]


def _selection_sheet(images, records):
    return [
        (r.seed_index, r.candidate_index, r.stream_id, r.s_con.hex(),
         float(r.entropy_gain).hex(), r.consistent, r.qualified,
         r.embedding.tobytes(), img.pixels.tobytes())
        for img, r in zip(images, records)
    ]


# tau 1e-4 makes every prediction one-hot with exact zeros
@pytest.mark.parametrize("tau", [1.0, 0.05, 1e-4])
@pytest.mark.parametrize("mode", ag.SELECTION_MODES)
def test_stacked_selection_equals_per_candidate_scoring(mode, tau):
    data = bk.gen_toy_dataset(4, 2, 16, seed=7)
    embedder = bk.make_embedder(data.image_shape, 64, seed=0)
    head = bk.fit_prototype_head(bk.gen_toy_dataset(4, 6, 16, seed=101), embedder, tau=tau)
    augmenters = (ag.rand_lite, lambda im, st: ag.cutout(im, 0.4, st))
    # at budget == quota, sample_wise returns every candidate it scored
    for (a, augmenter), (quota, budget) in itertools.product(
        enumerate(augmenters), ((3, 12), (4, 4))
    ):
        stream = _stream("stacked", a)
        args = (data.images, augmenter, embedder, head, quota, stream)
        want = _per_candidate_selection(*args, mode, budget)
        got = ag.selective_expand(*args, mode=mode, candidate_budget=budget)
        assert _selection_sheet(*got) == _selection_sheet(*want)
        assert len(got[0]) > 0 or mode == "sample_agnostic"


def test_selective_expand_checks_every_image_shape():
    data = bk.gen_toy_dataset(4, 2, 16, seed=7)
    embedder = bk.make_embedder(data.image_shape, 64, seed=0)
    head = bk.fit_prototype_head(data, embedder)
    small = bk.Image(np.full((8, 8, 1), 0.5))
    with pytest.raises(ShapeError):
        ag.selective_expand([small], ag.rand_lite, embedder, head, 1, _stream("shape"))
    # the third candidate alone comes out the wrong size
    shrink = lambda im, st: small if st.id.endswith("/cand/2") else ag.rand_lite(im, st)
    with pytest.raises(ShapeError):
        ag.selective_expand(data.images[:1], shrink, embedder, head, 1, _stream("shape"))
