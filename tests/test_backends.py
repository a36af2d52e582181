"""Backend tests: toy generator, PCA codec, embedder, prototype head, and the
embedding decode (embedder transpose then codec round trip)."""

import math

import numpy as np
import pytest

from expandforge import backends as bk
from expandforge import guidance as gd
from expandforge import latentmath as lm
from expandforge import errors, rng
from expandforge.errors import (
    CoverageError,
    NumericInputError,
    ParameterError,
    RankError,
    ShapeError,
)
from expandforge.pipeline import ExpansionConfig
from expandforge.rng import RngStream


def _toy(classes=4, per_class=25, side=16, seed=7):
    return bk.gen_toy_dataset(classes, per_class, side, seed)


# ---------------------------------------------------------------- toy generator

def test_toygen_shapes_counts_and_range():
    data = _toy(classes=3, per_class=4, side=12)
    assert len(data) == 12
    assert data.image_shape == (12, 12, 1)
    assert data.labels.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
    assert data.class_names == ["disc", "hstripes", "triangle"]
    for img in data.images:
        assert img.pixels.dtype == np.float32
        assert img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0


def test_toygen_bit_deterministic():
    a = _toy(seed=42)
    b = _toy(seed=42)
    for x, y in zip(a.images, b.images):
        assert np.array_equal(x.pixels, y.pixels)
    c = _toy(seed=43)
    assert any(
        not np.array_equal(x.pixels, y.pixels) for x, y in zip(a.images, c.images)
    )


def test_toygen_rejects_out_of_range_parameters():
    with pytest.raises(ParameterError):
        bk.gen_toy_dataset(1, 5, 16, 0)
    with pytest.raises(ParameterError):
        bk.gen_toy_dataset(9, 5, 16, 0)
    with pytest.raises(ParameterError):
        bk.gen_toy_dataset(4, 0, 16, 0)
    with pytest.raises(ParameterError):
        bk.gen_toy_dataset(4, 5, 7, 0)
    with pytest.raises(ParameterError):
        bk.gen_toy_dataset(4, 5, 65, 0)
    # sizes are counts: a float or bool one is rejected, not rounded
    for sizes in ((2.0, 2, 8), (2, 2.5, 8), (2, True, 8), (2, 2, 8.5)):
        with pytest.raises(ParameterError):
            bk.gen_toy_dataset(*sizes, 0)
    # so is a seed; any int, negatives included, is one
    for seed in (2.5, 2.0, True, "2"):
        with pytest.raises(ParameterError):
            bk.gen_toy_dataset(2, 2, 8, seed)
    assert len(bk.gen_toy_dataset(2, 2, 8, -3)) == 4


def test_root_stream_takes_only_an_int_seed():
    for seed in (2.5, True, "2", None):
        with pytest.raises(ParameterError):
            RngStream.root(seed)
    assert RngStream.root(-3).parts == (-3,)


def test_stream_id_parts_are_ints_or_strings():
    # a float, bool or None part raises the package's error, as a bad root does
    for parts in ((1.5,), (True,), (0, None), (0, "a", 2.0)):
        with pytest.raises(ParameterError):
            rng.derive_key(parts)
    with pytest.raises(ParameterError):
        RngStream.root(0).child(True).generator()
    assert rng.derive_key((0, "a", -1)) == rng.derive_key((0, "a", -1))


def test_check_real_ends_infinities_and_types():
    errors.check_real("x", 0, 0)
    errors.check_real("x", 1, 0, 1)
    errors.check_real("x", np.float32(0.5), 0, 1, open_low=True, open_high=True)
    errors.check_real("x", np.int64(3), 0)
    errors.check_real("x", 10**400, None)  # an int too large for a float is still a real
    errors.check_real("x", math.inf, 0, finite=False)
    errors.check_real("x", -math.inf, None, finite=False)
    for value, low, high, kw in (
        (0, 0, None, dict(open_low=True)),
        (1, 0, 1, dict(open_high=True)),
        (-1e-300, 0, None, {}),
        (1.5, 0, 1, {}),
        (math.inf, 0, None, {}),
        (-math.inf, 0, None, dict(finite=False)),
        (math.nan, None, None, dict(finite=False)),
        (np.float32("nan"), None, None, {}),
        (True, 0, None, {}),
        (np.bool_(True), 0, None, {}),
        ("1", 0, None, {}),
        (None, 0, None, {}),
        (1j, None, None, {}),
    ):
        with pytest.raises(ParameterError):
            errors.check_real("x", value, low, high, **kw)


def test_image_validation():
    with pytest.raises(ParameterError):
        bk.Image(np.full((4, 4, 1), 1.5))
    with pytest.raises(ShapeError):
        bk.Image(np.zeros((4, 4)))


def test_dataset_from_images_equals_dataset_from_pixel_array():
    data = _toy(classes=3, per_class=4, side=12)
    from_images = bk.LabeledDataset(
        images=[bk.Image(p.copy()) for p in data.pixels], labels=data.labels.tolist(),
        class_names=list(data.class_names),
    )
    from_array = bk.LabeledDataset(
        images=data.pixels.copy(), labels=data.labels, class_names=list(data.class_names)
    )
    for built in (from_images, from_array):
        assert built.pixels.dtype == np.float32 and built.labels.dtype == np.int64
        assert built.pixels.tobytes() == data.pixels.tobytes()
        assert built.labels.tolist() == data.labels.tolist()
        assert built.image_shape == (12, 12, 1) and len(built) == 12


@pytest.mark.parametrize("bad, error", [
    (math.nan, NumericInputError), (math.inf, NumericInputError),
    (-math.inf, NumericInputError), (1.5, ParameterError), (-0.1, ParameterError),
])
def test_dataset_rejects_bad_pixels_as_an_image_does(bad, error):
    data = _toy(classes=3, per_class=4, side=12)
    pixels = data.pixels.copy()
    pixels[5, 3, 2, 0] = bad
    pixels[7, 0, 0, 0] = math.nan  # a later bad image is not the one named
    with pytest.raises(error):
        bk.Image(pixels[5])
    with pytest.raises(error, match="image 5"):
        bk.LabeledDataset(images=pixels, labels=data.labels, class_names=data.class_names)


def test_dataset_images_view_is_built_once():
    data = _toy(classes=2, per_class=3, side=8)
    images = data.images
    assert data.images is images and len(images) == 6
    for img, pixels in zip(images, data.pixels):
        assert np.shares_memory(img.pixels, data.pixels)
        assert np.array_equal(img.pixels, pixels)


def test_empty_subset_keeps_the_image_shape():
    data = _toy(classes=2, per_class=3, side=8)
    empty = data.subset([])
    assert len(empty) == 0 and empty.image_shape == (8, 8, 1)
    assert empty.pixels.shape == (0, 8, 8, 1) and empty.labels.shape == (0,)
    picked = data.subset([4, 1])
    assert picked.labels.tolist() == [1, 0]
    assert picked.pixels.tobytes() == data.pixels[[4, 1]].tobytes()


def test_dataset_validation():
    img = bk.Image(np.zeros((4, 4, 1)))
    with pytest.raises(ParameterError):
        bk.LabeledDataset(images=[img], labels=[5], class_names=["a", "b"])
    with pytest.raises(ShapeError):
        bk.LabeledDataset(images=[img], labels=[0, 1], class_names=["a", "b"])


# ---------------------------------------------------------------- codec

def test_codec_basis_orthonormal_and_signed():
    data = _toy()
    codec = bk.fit_linear_codec(data, 32, (4, 8))
    gram = codec.basis @ codec.basis.T
    assert np.max(np.abs(gram - np.eye(32))) < 1e-10
    for row in codec.basis:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        assert row[nz[0]] > 0


def test_codec_rank1_dataset_exact_with_one_component():
    # constant images at four gray levels: centered data is rank one
    levels = [0.3, 0.4, 0.5, 0.6]
    images = [bk.Image(np.full((4, 4, 1), v, dtype=np.float32)) for v in levels]
    data = bk.LabeledDataset(images=images, labels=[0, 1, 0, 1], class_names=["a", "b"])
    codec = bk.fit_linear_codec(data, 1, (1, 1))
    for img in images:
        rec = codec.decode(codec.encode(img))
        assert float(np.max(np.abs(rec.flat() - img.flat()))) < 1e-8


def test_codec_complete_basis_reconstructs_exactly():
    rng = np.random.default_rng(3)
    images = [
        bk.Image(rng.uniform(0.05, 0.95, size=(4, 4, 1)).astype(np.float32))
        for _ in range(26)
    ]
    data = bk.LabeledDataset(
        images=images, labels=[i % 2 for i in range(26)], class_names=["a", "b"]
    )
    codec = bk.fit_linear_codec(data, 16, (4, 4))
    mse = np.mean(
        [np.mean((codec.decode(codec.encode(i)).flat() - i.flat()) ** 2) for i in images]
    )
    assert mse < 1e-10


def test_codec_mse_decreases_with_latent_dim():
    data = _toy(per_class=25)
    mses = []
    for latent_dim, shape in [(8, (2, 4)), (16, (4, 4)), (32, (4, 8))]:
        codec = bk.fit_linear_codec(data, latent_dim, shape)
        mses.append(
            np.mean(
                [
                    np.mean((codec.decode(codec.encode(i)).flat() - i.flat()) ** 2)
                    for i in data.images
                ]
            )
        )
    assert mses[0] > mses[1] > mses[2]


def test_codec_rejects_bad_parameters_and_rank():
    data = _toy(per_class=3)  # 12 samples
    with pytest.raises(ParameterError):
        bk.fit_linear_codec(data, 13, (13, 1))  # latent_dim > N
    with pytest.raises(ParameterError):
        bk.fit_linear_codec(data, 32, (4, 4))  # shape does not factor dim
    flat_images = [bk.Image(np.full((4, 4, 1), 0.5, dtype=np.float32)) for _ in range(8)]
    degenerate = bk.LabeledDataset(
        images=flat_images, labels=[i % 2 for i in range(8)], class_names=["a", "b"]
    )
    with pytest.raises(RankError) as err:
        bk.fit_linear_codec(degenerate, 2, (1, 2))
    assert "rank 0" in str(err.value)


def test_codec_sizes_are_counts():
    # a float latent size would reach the latent reshape of gif_latent
    data = _toy(per_class=3)
    for latent_dim, latent_shape in ((8.0, (2, 4)), (8, (2, 4.0)), (8, (2.0, 4)), (True, (1, 1))):
        with pytest.raises(ParameterError):
            bk.fit_linear_codec(data, latent_dim, latent_shape)


def test_codec_encode_decode_shape_checks():
    data = _toy()
    codec = bk.fit_linear_codec(data, 32, (4, 8))
    with pytest.raises(ShapeError):
        codec.encode(bk.Image(np.zeros((8, 8, 1))))
    with pytest.raises(ShapeError):
        codec.decode(lm.Latent(np.zeros((2, 8))))


def test_codec_fit_deterministic():
    data = _toy()
    a = bk.fit_linear_codec(data, 32, (4, 8))
    b = bk.fit_linear_codec(data, 32, (4, 8))
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.mean_image, b.mean_image)


# ---------------------------------------------------------------- embedder

def test_embedder_orthonormal_rows():
    emb = bk.make_embedder((16, 16, 1), 64, seed=0)
    gram = emb.projection @ emb.projection.T
    assert np.max(np.abs(gram - np.eye(64))) < 1e-8


def test_embedder_deterministic_in_seed():
    a = bk.make_embedder((8, 8, 1), 16, seed=5)
    b = bk.make_embedder((8, 8, 1), 16, seed=5)
    c = bk.make_embedder((8, 8, 1), 16, seed=6)
    assert np.array_equal(a.projection, b.projection)
    assert not np.array_equal(a.projection, c.projection)


def test_embedder_formula_and_bounds():
    emb = bk.make_embedder((4, 4, 1), 8, seed=1)
    img = bk.Image(np.linspace(0, 1, 16, dtype=np.float32).reshape(4, 4, 1))
    want = emb.projection @ (img.flat() - 0.5)
    np.testing.assert_allclose(emb.embed(img), want, atol=1e-12)
    for embed_dim, seed in ((17, 0), (0, 0), (2.5, 0), (True, 0), (8, 2.5), (8, True)):
        with pytest.raises(ParameterError):
            bk.make_embedder((4, 4, 1), embed_dim, seed)
    assert bk.make_embedder((4, 4, 1), 8, seed=-1).embed_dim == 8
    with pytest.raises(ShapeError):
        emb.embed(bk.Image(np.zeros((5, 5, 1))))


def test_embed_dataset_matches_per_image_embed(monkeypatch):
    # one gemm may sum in another order than per-image gemv: equal to rounding
    monkeypatch.setattr(bk, "EMBED_BATCH", 7)  # 20 images: batches of 7, 7 and 6
    data = _toy(per_class=5)
    emb = bk.make_embedder(data.image_shape, 16, seed=0)
    want = np.stack([emb.embed(img) for img in data.images])
    np.testing.assert_allclose(emb.embed_dataset(data), want, rtol=0, atol=1e-12)
    with pytest.raises(ShapeError):
        bk.make_embedder((8, 8, 1), 16, seed=0).embed_dataset(data)


def test_embed_images_rows_are_the_per_image_embeds():
    data = _toy(classes=3, per_class=4, seed=5)
    emb = bk.make_embedder(data.image_shape, 32, seed=0)
    rows = emb.embed_images(data.images)
    assert rows.shape == (len(data), 32)
    for img, row in zip(data.images, rows):
        # one-vector gemv, bit for bit
        assert row.tobytes() == emb.embed_flat(img.flat()).tobytes()
        assert row.tobytes() == emb.embed(img).tobytes()
    wrong = bk.Image(np.full((8, 8, 1), 0.5))
    for images in ([wrong], [data.images[0], wrong]):
        with pytest.raises(ShapeError):
            emb.embed_images(images)


# ---------------------------------------------------------------- head

def test_head_prototypes_are_the_per_exemplar_means():
    ex = _toy(classes=4, per_class=5, seed=101)
    emb = bk.make_embedder(ex.image_shape, 64, seed=0)
    head = bk.fit_prototype_head(ex, emb)
    labels = np.asarray(ex.labels)
    for c, proto in enumerate(head.prototypes):
        # the mean of one-image embeds, as the head was fitted before its
        # exemplars were embedded as one stack
        mean_emb = np.mean(
            [emb.embed_flat(ex.images[i].flat()) for i in np.flatnonzero(labels == c)], axis=0
        )
        assert proto.tobytes() == (mean_emb / np.linalg.norm(mean_emb)).tobytes()


def test_head_predict_rows_are_the_per_embedding_predictions():
    ex = _toy(classes=4, per_class=5, seed=101)
    emb = bk.make_embedder(ex.image_shape, 32, seed=0)
    head = bk.fit_prototype_head(ex, emb, tau=0.5)
    e = emb.embed_images(ex.images).reshape(4, 5, -1)
    probs = head.predict_rows(e)
    assert probs.shape == (4, 5, 4)
    for row, p in zip(e.reshape(20, -1), probs.reshape(20, -1)):
        assert p.tobytes() == head.predict(row).probs.tobytes()


def test_head_prototypes_unit_norm():
    ex = _toy(classes=4, per_class=5, seed=101)
    emb = bk.make_embedder(ex.image_shape, 64, seed=0)
    head = bk.fit_prototype_head(ex, emb)
    np.testing.assert_allclose(np.linalg.norm(head.prototypes, axis=1), 1.0, atol=1e-12)


def test_head_rejects_a_non_finite_or_non_positive_tau():
    protos = np.eye(2, 4)
    for tau in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            bk.ZeroShotHead(prototypes=protos, tau=tau)
    assert bk.ZeroShotHead(prototypes=protos, tau=1e-3).tau == 1e-3


def test_head_tau_is_a_real():
    for tau in ("1", True, None):
        with pytest.raises(ParameterError):
            bk.ZeroShotHead(prototypes=np.eye(2, 4), tau=tau)
    assert bk.ZeroShotHead(prototypes=np.eye(2, 4), tau=np.float32(0.5)).tau == 0.5


def test_head_rejects_empty_class():
    ex = _toy(classes=3, per_class=2, seed=101)
    missing = ex.subset([0, 1, 2, 3])  # drops every class-2 exemplar
    with pytest.raises(CoverageError) as err:
        bk.fit_prototype_head(missing, bk.make_embedder(ex.image_shape, 16, seed=0))
    assert "triangle" in str(err.value)


def test_head_probe_accuracy_at_least_80_percent():
    # measured at these seeds: 1.00 (2 classes), 1.00 (4), 0.865 (8)
    for classes in (2, 4, 8):
        ex = bk.gen_toy_dataset(classes, 5, 16, seed=101)
        probe = bk.gen_toy_dataset(classes, 25, 16, seed=202)
        emb = bk.make_embedder(ex.image_shape, 64, seed=0)
        head = bk.fit_prototype_head(ex, emb)
        hits = sum(
            int(head.predict(emb.embed(img)).argmax_class == label)
            for img, label in zip(probe.images, probe.labels)
        )
        assert hits / len(probe) >= 0.80


def test_head_predict_matches_kernel_classifier():
    ex = _toy(classes=4, per_class=5, seed=101)
    emb = bk.make_embedder(ex.image_shape, 32, seed=0)
    head = bk.fit_prototype_head(ex, emb, tau=0.5)
    e = emb.embed(ex.images[3])
    pred = head.predict(e)
    ref = lm.classify(e, head.prototypes, 0.5)
    np.testing.assert_allclose(pred.probs, ref.probs, atol=1e-15)


# ---------------------------------------------------------------- decoder

def _decode_seed(seed, codec, emb, head):
    """The embedding flow at epsilon 0 emits the seed's embedding, decoded."""
    cfg = ExpansionConfig(epsilon=0.0, ratio_k=2, steps=1)
    stream = RngStream.root(0).child("test", "decode")
    images, _, _ = gd.expand_seed_embedding_flow(seed, codec, emb, head, cfg, stream)
    return images


def test_embedding_decoder_round_trip_is_close():
    data = _toy(per_class=25)
    codec = bk.fit_linear_codec(data, 32, (4, 8))
    emb = bk.make_embedder(data.image_shape, 64, seed=0)
    head = bk.fit_prototype_head(_toy(per_class=5, seed=101), emb)
    img = data.images[0]
    for rec in _decode_seed(img, codec, emb, head):
        assert rec.pixels.shape == img.pixels.shape
        # embed then decode loses the out-of-subspace part but stays in range
        assert rec.pixels.min() >= 0.0 and rec.pixels.max() <= 1.0


def test_embedding_decoder_rejects_mismatched_sizes():
    data = _toy()
    codec = bk.fit_linear_codec(data, 32, (4, 8))
    emb = bk.make_embedder(data.image_shape, 16, seed=0)
    head = bk.fit_prototype_head(_toy(per_class=5, seed=101), emb)
    # a codec whose pixels are not the embedder's cannot decode its embeddings
    small = _toy(side=8)
    other_codec = bk.fit_linear_codec(small, 16, (4, 4))
    with pytest.raises(ShapeError):
        _decode_seed(data.images[0], other_codec, emb, head)
    other = bk.make_embedder((8, 8, 1), 16, seed=0)
    other_head = bk.fit_prototype_head(_toy(per_class=5, side=8, seed=101), other)
    with pytest.raises(ShapeError):
        _decode_seed(data.images[0], codec, other, other_head)
