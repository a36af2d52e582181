"""Backend tests: toy generator, PCA codec, embedder, prototype head, and the
embedding decode (embedder transpose then codec round trip)."""

import numpy as np
import pytest

from expandforge import backends as bk
from expandforge import guidance as gd
from expandforge import latentmath as lm
from expandforge.errors import (
    CoverageError,
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
    assert data.labels == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
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


def test_image_validation():
    with pytest.raises(ParameterError):
        bk.Image(np.full((4, 4, 1), 1.5))
    with pytest.raises(ShapeError):
        bk.Image(np.zeros((4, 4)))


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
    with pytest.raises(ParameterError):
        bk.make_embedder((4, 4, 1), 17, seed=0)
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
