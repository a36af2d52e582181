"""Tests for the GIFX container, canonical JSON, manifests, and expansion."""

import copy
import dataclasses
import fractions
import functools
import hashlib
import json
import math
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import expandforge.augment as ag
import expandforge.backends as bk
import expandforge.latentmath as lm
import expandforge.pipeline as pl
from expandforge.errors import FormatError, InputError, ParameterError, ShapeError
from expandforge.rng import RngStream


@functools.lru_cache(maxsize=None)
def _data(classes=4, per_class=3, side=16, seed=7):
    return bk.gen_toy_dataset(classes, per_class, side, seed)


@functools.lru_cache(maxsize=None)
def _bundle(classes=4, per_class=3, side=16, seed=7):
    data = _data(classes, per_class, side, seed)
    codec = bk.fit_linear_codec(data, latent_dim=8, latent_shape=(2, 4))
    embedder = bk.make_embedder(data.image_shape, 32, seed=0)
    head = bk.fit_prototype_head(data, embedder)
    return pl.BackendBundle(codec=codec, embedder=embedder, head=head)


def _small_config():
    return pl.ExpansionConfig(ratio_k=2, steps=2)


# ------------------------------------------------------------ GIFX format


def test_gifx_header_layout():
    data = bk.gen_toy_dataset(4, 5, 16, seed=3)
    buf = pl.dataset_bytes(data)
    assert buf[:4] == b"GIFX"
    assert struct.unpack("<6I", buf[4:28]) == (1, 20, 16, 16, 1, 4)


def test_gifx_round_trip_identity(tmp_path):
    data = _data()
    path = tmp_path / "toy.gifx"
    pl.write_dataset(data, path)
    loaded = pl.read_dataset(path)
    assert loaded.class_names == data.class_names
    assert loaded.labels.tolist() == data.labels.tolist()
    for a, b in zip(loaded.images, data.images):
        assert np.array_equal(a.pixels, b.pixels)
    assert pl.dataset_bytes(loaded) == pl.dataset_bytes(data)


def _name_block_size(data):
    return sum(4 + len(n.encode("utf-8")) for n in data.class_names)


def test_gifx_rejects_corruption():
    data = _data()
    buf = bytearray(pl.dataset_bytes(data))

    bad_magic = bytearray(buf)
    bad_magic[0] ^= 0xFF
    with pytest.raises(FormatError, match="byte 0"):
        pl.dataset_from_bytes(bytes(bad_magic))

    bad_version = bytearray(buf)
    struct.pack_into("<I", bad_version, 4, 9)
    with pytest.raises(FormatError, match="byte 4"):
        pl.dataset_from_bytes(bytes(bad_version))

    with pytest.raises(FormatError, match="truncated"):
        pl.dataset_from_bytes(bytes(buf[:-3]))

    with pytest.raises(FormatError, match="trailing"):
        pl.dataset_from_bytes(bytes(buf) + b"xx")

    zero_height = bytearray(buf)
    struct.pack_into("<I", zero_height, 12, 0)
    with pytest.raises(FormatError, match="byte 12"):
        pl.dataset_from_bytes(bytes(zero_height))

    one_class = bytearray(buf)
    struct.pack_into("<I", one_class, 24, 1)
    with pytest.raises(FormatError, match="byte 24"):
        pl.dataset_from_bytes(bytes(one_class))

    label_offset = 28 + _name_block_size(data)
    bad_label = bytearray(buf)
    struct.pack_into("<I", bad_label, label_offset, data.class_count)
    with pytest.raises(FormatError, match="label"):
        pl.dataset_from_bytes(bytes(bad_label))

    bad_pixel = bytearray(buf)
    struct.pack_into("<f", bad_pixel, label_offset + 4, 1.5)
    with pytest.raises(FormatError, match="outside"):
        pl.dataset_from_bytes(bytes(bad_pixel))

    nan_pixel = bytearray(buf)
    struct.pack_into("<f", nan_pixel, label_offset + 4, float("nan"))
    with pytest.raises(FormatError, match="finite"):
        pl.dataset_from_bytes(bytes(nan_pixel))


@functools.lru_cache(maxsize=None)
def _small_blob():
    return pl.dataset_bytes(bk.gen_toy_dataset(2, 1, 8, seed=0))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_gifx_byte_mutations_raise_only_format_error(data):
    # bytes are overwritten, the blob is truncated, or bytes are appended
    blob = bytearray(_small_blob())
    kind = data.draw(st.sampled_from(["overwrite", "truncate", "append"]))
    if kind == "overwrite":
        for _ in range(data.draw(st.integers(1, 8))):
            pos = data.draw(st.integers(0, len(blob) - 1))
            blob[pos] = data.draw(st.integers(0, 255))
    elif kind == "truncate":
        del blob[data.draw(st.integers(0, len(blob) - 1)):]
    else:
        blob += data.draw(st.binary(min_size=1, max_size=64))
    try:
        pl.dataset_from_bytes(bytes(blob))
    except FormatError:
        pass


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gifx_round_trip_is_bit_exact_at_any_offset(data):
    n, h, w, c = (data.draw(st.integers(1, 5)) for _ in range(4))
    classes = data.draw(st.integers(2, 5))
    # a name of odd UTF-8 length puts the record block at an unaligned offset
    odd = st.text(max_size=4).map(lambda s: s if len(s.encode("utf-8")) % 2 else s + "x")
    names = data.draw(st.lists(odd, min_size=classes, max_size=classes))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, classes - 1)))
    pixels = data.draw(arrays(np.float32, (n, h, w, c), elements=st.floats(0, 1, width=32)))
    buf = pl.dataset_bytes(bk.LabeledDataset(images=pixels, labels=labels, class_names=names))
    start = 28 + sum(4 + len(name.encode("utf-8")) for name in names)
    assert len(buf) == start + n * (4 + 4 * h * w * c)
    loaded = pl.dataset_from_bytes(buf)
    assert loaded.pixels.tobytes() == pixels.tobytes()
    assert loaded.labels.tolist() == labels.tolist() and loaded.class_names == names
    assert pl.dataset_bytes(loaded) == buf
    assert pl.dataset_digest(loaded) == hashlib.sha256(buf).hexdigest()


def test_gifx_huge_declared_dims_raise_format_error():
    blob = _small_blob()
    for fields in ((12,), (16,), (20,), (8, 12, 16, 20)):
        huge = bytearray(blob)
        for offset in fields:
            struct.pack_into("<I", huge, offset, 2**32 - 1)
        with pytest.raises(FormatError, match="truncated"):
            pl.dataset_from_bytes(bytes(huge))


def test_seed_content_key_hashes_the_seed_record_in_the_file(tmp_path):
    data = _data()
    path = tmp_path / "seeds.gifx"
    pl.write_dataset(data, path)
    raw = path.read_bytes()
    start, size = 28 + _name_block_size(data), 4 + 4 * int(np.prod(data.image_shape))
    records = np.frombuffer(raw, pl.record_dtype(data.image_shape), len(data), start)
    want = [hashlib.sha256(raw[start + j * size : start + (j + 1) * size]).hexdigest()
            for j in range(len(data))]
    assert [pl.seed_content_key(record) for record in records] == want
    _, manifest = pl.expand_dataset(data, "cutout", _small_config(), _bundle(), global_seed=1)
    for record in manifest.records:
        assert f"/seed/{want[record['seed_index']]}/" in record["stream_id"]


def test_gifx_rejects_empty_dataset():
    data = _data().subset([])
    with pytest.raises(InputError):
        pl.dataset_bytes(data)


def test_a_dataset_is_its_gifx_record_array():
    data = _data()
    expanded, _ = pl.expand_dataset(data, "cutout", _small_config(), _bundle(), global_seed=1)
    for d in (data, expanded, pl.dataset_from_bytes(pl.dataset_bytes(expanded))):
        assert d.records.dtype == pl.record_dtype(d.image_shape) and d.records.shape == (len(d),)
        assert np.shares_memory(d.pixels, d.records) and np.shares_memory(d.labels, d.records)
        assert d.labels.dtype == np.uint32
        header = pl.HEADER.pack(b"GIFX", 1, len(d), *d.image_shape, d.class_count) + b"".join(
            struct.pack("<I", len(name.encode("utf-8"))) + name.encode("utf-8")
            for name in d.class_names)
        assert pl.dataset_bytes(d) == header + d.records.tobytes()
    # a read dataset holds the file's records in place
    buf = pl.dataset_bytes(expanded)
    assert np.shares_memory(pl.dataset_from_bytes(buf).records, np.frombuffer(buf, np.uint8))


def test_expand_write_digest_and_verify_allocate_no_second_record_array(tmp_path):
    # the bulk benchmark's shape: 8 x 25 seeds at 32x32, cutout, K = 20
    data = bk.gen_toy_dataset(8, 25, 32, 1)
    embedder = bk.make_embedder(data.image_shape, 64, seed=0)
    bundle = pl.BackendBundle(None, embedder, bk.fit_prototype_head(data, embedder))
    size = len(data) * 21 * (4 + 4 * 32 * 32)  # the expanded set's record array

    def traced_peak(run):
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (expanded, manifest), peak = traced_peak(
        lambda: pl.expand_dataset(data, "cutout", pl.ExpansionConfig(ratio_k=20), bundle, 1))
    assert peak <= 1.3 * size
    path = tmp_path / "bulk.gifx"
    assert traced_peak(lambda: pl.write_dataset(expanded, path))[1] < size / 10
    back = pl.read_dataset(path)
    for run in (lambda: pl.dataset_digest(expanded),
                lambda: manifest.verify_against(data, expanded),
                lambda: manifest.verify_against(data, back)):
        assert traced_peak(run)[1] < size / 10


def test_output_file_leaves_a_device_in_place(monkeypatch):
    # a failed write removes the file it opened, but only a regular file
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    removed = []
    monkeypatch.setattr(pl.os, "remove", removed.append)
    with pytest.raises(OSError, match="/dev/full"):
        with pl.output_file("/dev/full") as fh:
            fh.write("x")
    assert removed == []


# -------------------------------------------------------- canonical JSON


def test_canonical_json_layout():
    obj = {"b": 0.5, "a": [1, 2.25, "x"], "c": None, "d": True}
    assert pl.canonical_json(obj) == '{"a":[1,2.25,"x"],"b":0.5,"c":null,"d":true}'


def test_canonical_json_float_formatting():
    assert pl.canonical_json(0.1) == "0.1"
    assert pl.canonical_json(1.0 / 3.0) == "0.333333333"
    assert pl.canonical_json(1e-12) == "1e-12"
    assert pl.canonical_json(1.0) == "1"
    assert pl.canonical_json(np.float64(2.5)) == "2.5"
    assert pl.canonical_json(np.int64(7)) == "7"
    assert pl.canonical_json([np.True_, np.False_]) == "[true,false]"
    with pytest.raises(InputError):
        pl.canonical_json(float("nan"))
    with pytest.raises(InputError):
        pl.canonical_json({1: "x"})
    with pytest.raises(InputError):
        pl.canonical_json(object())


def test_canonical_json_rejects_mixed_keys_before_sorting():
    # sorted() would raise TypeError comparing 1 with "a"
    for obj in ({1: "x", "a": 1}, {"a": 1, 1: "x"}, [{"b": {2: 0, "c": 0}}]):
        with pytest.raises(InputError):
            pl.canonical_json(obj)
    with pytest.raises(InputError):
        pl.canonical_json({"a": [object()]})


def _isinstance_canonical_json(obj) -> str:
    """canonical_json as it was before it dispatched on exact types."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pl._format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise InputError(f"canonical JSON keys must be strings, got {key!r}")
        inner = ",".join(
            f"{json.dumps(k, ensure_ascii=False)}:{_isinstance_canonical_json(obj[k])}"
            for k in sorted(obj)
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_isinstance_canonical_json(v) for v in obj) + "]"
    raise InputError(f"canonical JSON cannot hold {type(obj).__name__}")


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(),  # nan, inf and subnormals included
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e300, float("nan"), float("-inf")]),
    st.text(),  # non-ASCII included
)
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)), inner, max_size=3),
    ),
    max_leaves=24,
)


def _json_outcome(render, obj):
    try:
        return render(obj)
    except Exception as err:  # the exception type is part of the outcome
        return type(err)


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
def test_canonical_json_matches_the_isinstance_renderer(tree):
    assert _json_outcome(pl.canonical_json, tree) == _json_outcome(
        _isinstance_canonical_json, tree
    )


# --------------------------------------------------------------- manifest


def test_manifest_round_trip_and_digests(tmp_path):
    data = _data()
    expanded, manifest = pl.expand_dataset(
        data, "cutout", _small_config(), _bundle(), global_seed=0
    )
    path = tmp_path / "run.manifest.json"
    pl.write_manifest(manifest, path)
    loaded = pl.read_manifest(path)
    again = tmp_path / "again.manifest.json"
    pl.write_manifest(loaded, again)
    assert path.read_bytes() == again.read_bytes()
    assert len(loaded.records) == loaded.seed_count * loaded.ratio_k
    loaded.verify_against(data, expanded)


def test_manifest_rejects_bad_contents(tmp_path):
    data = _data()
    expanded, manifest = pl.expand_dataset(
        data, "cutout", _small_config(), _bundle(), global_seed=0
    )
    # one seed's row of record columns fewer than seed_count says
    broken = dataclasses.replace(
        manifest, columns={key: column[:-1] for key, column in manifest.columns.items()}
    )
    with pytest.raises(InputError):
        broken.validate()
    with pytest.raises(FormatError):
        pl.ExpansionManifest.from_dict({**manifest.as_dict(), "records": manifest.records[:-1]})
    tampered = pl.ExpansionManifest.from_dict(manifest.as_dict())
    tampered.expanded_digest = "0" * 64
    with pytest.raises(FormatError):
        tampered.verify_against(data, expanded)
    missing = manifest.as_dict()
    del missing["method"]
    with pytest.raises(FormatError):
        pl.ExpansionManifest.from_dict(missing)


def test_manifest_with_numpy_bools_validates_and_writes(tmp_path):
    # whatever from_dict accepts, write_manifest must be able to write
    data = _cutout_manifest_dict()
    records = [{**r, "consistent": np.bool_(r["consistent"]), "fallback": np.False_}
               for r in data["records"]]
    pl.write_manifest(pl.ExpansionManifest.from_dict(data), tmp_path / "plain.json")
    pl.write_manifest(pl.ExpansionManifest.from_dict({**data, "records": records}),
                      tmp_path / "numpy.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "numpy.json").read_bytes()
    # numpy ints and floats are numbers of their kinds too, in a record and its scores
    def numpy_scores(scores):
        return {key: list(map(np.float64, value)) if key == "weights" else np.float64(value)
                for key, value in scores.items()}
    records = [{**r, "seed_index": np.int64(r["seed_index"]),
                "variant_index": np.int32(r["variant_index"]), "retry_count": np.int64(0),
                "scores_initial": numpy_scores(r["scores_initial"]),
                "scores_final": numpy_scores(r["scores_final"])} for r in data["records"]]
    pl.write_manifest(pl.ExpansionManifest.from_dict({**data, "records": records}),
                      tmp_path / "numbers.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "numbers.json").read_bytes()


def test_manifest_with_integer_scores_reads_and_writes(tmp_path):
    # JSON writes an integral float as an int; the score columns stay float64
    data = _cutout_manifest_dict()
    scores = {"s_con": 1, "s_ent": 0, "s_div": 0, "total": 1, "weights": [1, 1, 1]}
    records = [{**r, "scores_initial": scores, "scores_final": scores} for r in data["records"]]
    data = {**data, "records": records}
    pl.write_manifest(pl.ExpansionManifest.from_dict(data), tmp_path / "ints.json")
    assert (tmp_path / "ints.json").read_text() == pl.canonical_json(data) + "\n"


@functools.lru_cache(maxsize=None)
def _cutout_manifest_dict():
    _, manifest = pl.expand_dataset(_data(), "cutout", _small_config(), _bundle(), global_seed=0)
    return manifest.as_dict()


def _first_record(change):
    def apply(m):
        return {**m, "records": [change(m["records"][0])] + m["records"][1:]}
    return apply


def _record_at(p, change):
    """Replace record p by change(record), first growing the manifest to hold a
    record p by repeating its records under further seed indices."""
    def apply(m):
        k, records = m["ratio_k"], m["records"]
        n = max(m["seed_count"], p // k + 1)
        grown = [{**records[q % len(records)], "seed_index": q // k, "variant_index": q % k}
                 for q in range(n * k)]
        grown[p] = change(grown[p])
        return {**m, "seed_count": n, "records": grown}
    return apply


@pytest.mark.parametrize(
    "tamper",
    [
        lambda m: {**m, "seed_count": str(m["seed_count"])},
        # the record counts match, so only the type check can reject these
        lambda m: {**m, "seed_count": True, "records": m["records"][: m["ratio_k"]]},
        lambda m: {**m, "seed_count": 1.5, "records": m["records"][: int(1.5 * m["ratio_k"])]},
        lambda m: {**m, "records": 5},
        lambda m: {**m, "ratio_k": None},
        lambda m: {**m, "original_digest": 0},
        lambda m: {**m, "config": []},
        lambda m: {**m, "records": [{} for _ in m["records"]]},
        _first_record(lambda r: {**r, "retry_count": False}),
        _first_record(lambda r: {**r, "consistent": 1}),
        _first_record(lambda r: {**r, "extra": 0}),
        _first_record(lambda r: {**r, "scores_final": {**r["scores_final"], "s_div": "0"}}),
        _first_record(lambda r: {**r, "scores_initial": {**r["scores_initial"], "weights": [1]}}),
        lambda m: [m],
        # a column whose last value alone is of another type, or not an object
        lambda m: {**m, "records": [*m["records"][:-1], {**m["records"][-1], "fallback": 0.0}]},
        lambda m: {**m, "records": [*m["records"][:-1], list(m["records"][-1].items())]},
        _first_record(lambda r: {**r, "scores_final": 0.5}),
        # equal to the config's weights, but not a float
        _first_record(lambda r: {**r, "scores_final": {**r["scores_final"],
                                                       "weights": [fractions.Fraction(1), 1, 1]}}),
    ],
    ids=[
        "seed_count_str", "seed_count_bool", "seed_count_float", "records_int",
        "ratio_k_null", "digest_int", "config_list", "records_empty",
        "retry_count_bool", "consistent_int", "record_extra_key", "score_str",
        "weights_short", "root_list", "last_fallback_float", "last_record_list",
        "scores_float", "weights_fraction",
    ],
)
def test_manifest_rejects_wrong_types(tamper):
    assert pl.ExpansionManifest.from_dict(_cutout_manifest_dict())
    with pytest.raises(FormatError):
        pl.ExpansionManifest.from_dict(tamper(copy.deepcopy(_cutout_manifest_dict())))


def _scores_weights(key, weights):
    return _first_record(lambda r: {**r, key: {**r[key], "weights": weights}})


# each case is type-correct but contradicts itself: record p must be seed
# p // ratio_k's variant p % ratio_k, by the manifest's method, with the
# config's weights and retry_count >= 0, and the config must be a real one;
# or it breaks one record's types deep in the manifest, which names it
@pytest.mark.parametrize(
    "tamper, named",
    [
        (_first_record(lambda r: {**r, "seed_index": 7}), "record 0"),
        (_first_record(lambda r: {**r, "variant_index": -3}), "record 0"),
        (_first_record(lambda r: {**r, "method": "nonsense"}), "record 0"),
        (_first_record(lambda r: {**r, "method": "gif_latent"}), "record 0"),
        (_scores_weights("scores_initial", [9, 9, 9]), "record 0"),
        (_scores_weights("scores_final", [9.0, 9.0, 9.0]), "record 0"),
        (lambda m: {**m, "config": {**m["config"], "weights": [2.0, 1.0, 1.0]}}, "record 0"),
        (_first_record(lambda r: {**r, "retry_count": -4}), "record 0"),
        (lambda m: {**m, "records": [m["records"][0], *m["records"][:1], *m["records"][2:]]},
         "record 1"),
        (lambda m: {**m, "config": {}}, "config"),
        (lambda m: {**m, "config": {**m["config"], "ratio_k": 0}}, "config"),
        # an infinite step_size, which no config holds and canonical JSON cannot write
        (lambda m: {**m, "config": {**m["config"], "step_size": math.inf}}, "config"),
        # each whole-column check fails, and names the first record that fails alone
        (_record_at(37, lambda r: {**r, "consistent": 1}), "record 37"),
        (_record_at(12, lambda r: {**r, "scores_final": {**r["scores_final"], "s_con": "0"}}),
         "record 12"),
        (_record_at(5, lambda r: {key: r[key] for key in r if key != "stream_id"}), "record 5"),
        # equal to the config's weights by value, so only the bool rule rejects it
        (_record_at(3, lambda r: {**r, "scores_initial": {**r["scores_initial"],
                                                          "weights": [True, 1.0, 1.0]}}),
         "record 3"),
        (_record_at(9, lambda r: {**r, "retry_count": 2**70}), "record 9"),
        # text UTF-8 cannot encode: a JSON "\ud800" escape reads as a lone surrogate
        (_record_at(5, lambda r: {**r, "stream_id": r["stream_id"] + "\ud800"}), "record 5"),
        (lambda m: {**m, "version": "\ud800"}, "version"),
        # a config that contradicts the header it comes with
        (lambda m: {**m, "config": {**m["config"], "ratio_k": 7}}, "config"),
    ],
    ids=[
        "seed_index", "variant_index_negative", "method_unknown", "method_other",
        "initial_weights", "final_weights", "config_weights", "retry_count_negative",
        "record_copied", "config_empty", "config_invalid", "config_step_size_inf",
        "record_37_consistent_int", "record_12_score_str", "record_5_no_stream_id",
        "record_3_weights_bool", "record_9_retry_count_overflow",
        "record_5_stream_id_surrogate", "version_surrogate", "config_ratio_k_not_the_headers",
    ],
)
def test_manifest_rejects_self_contradicting_records(tamper, named):
    with pytest.raises(FormatError, match=rf"\b{named}\b"):
        pl.ExpansionManifest.from_dict(tamper(copy.deepcopy(_cutout_manifest_dict())))


@pytest.mark.parametrize(
    "key, index, value, message",
    [
        ("scores_final", (3, 1, 2), math.nan, "record 7 scores_final field 's_div' must be float"),
        ("scores_initial", (0, 0, 3), -math.inf, "record 0 scores_initial field 'total' must be"),
        ("retry_count", (5, 0), -1, "record 10 field 'retry_count' must be >= 0"),
    ],
)
def test_validate_names_the_first_bad_record(key, index, value, message):
    _, manifest = pl.expand_dataset(_data(), "cutout", _small_config(), _bundle(), global_seed=0)
    manifest.columns[key][index] = value
    manifest.columns[key][-1, -1] = value  # a later bad record is not the one named
    with pytest.raises(InputError, match=f"^{message}"):
        manifest.validate()


_SCORE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals included
    st.sampled_from([
        -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.7976931348623157e308,
        # on or next to a 9-significant-digit rounding boundary
        0.1234567895, 1.0000000005, 999999999.5, 9.9999999995e-5, -123456788.5, 1e9,
    ]),
)
_STREAM_IDS = st.text(st.sampled_from('"\\/ aé\x00\n\u2028☃𝄞') | st.characters(), max_size=6)


@pytest.mark.parametrize("k", [1, 3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_render_records_matches_canonical_json_of_the_records(k, data):
    n = data.draw(st.integers(1, 3))
    def flags():
        return data.draw(arrays(np.bool_, (n, k)))
    columns = {
        "scores_initial": data.draw(arrays(np.float64, (n, k, 4), elements=_SCORE_FLOATS)),
        "scores_final": data.draw(arrays(np.float64, (n, k, 4), elements=_SCORE_FLOATS)),
        "consistent": flags(),
        "retry_count": data.draw(arrays(np.int64, (n, k), elements=st.integers(0, 2**63 - 1))),
        "fallback": flags(),
        "qualified": flags(),
        "stream_id": data.draw(st.lists(_STREAM_IDS, min_size=n * k, max_size=n * k)),
    }
    method = data.draw(st.sampled_from(pl.METHOD_IDS))
    weights = data.draw(st.lists(_SCORE_FLOATS.map(abs), min_size=3, max_size=3))
    assert "".join(pl._render_records(method, weights, columns)) == pl.canonical_json(
        pl._records(method, weights, columns)
    )


@pytest.mark.parametrize(
    "raw", [b"\xff\xfe{}", b'{"version": "\xe9"}', b"", b"[1, 2]"],
    ids=["bad_utf8_bom", "bad_utf8_body", "empty", "root_list"],
)
def test_read_manifest_rejects_unreadable_bytes(tmp_path, raw):
    path = tmp_path / "bad.manifest.json"
    path.write_bytes(raw)
    with pytest.raises(FormatError):
        pl.read_manifest(path)


@pytest.mark.parametrize("change", [
    lambda m: {**m, "seed_count": str(m["seed_count"])},
    _first_record(lambda r: {}),
    _first_record(lambda r: {**r, "retry_count": -1}),
], ids=["header", "record_keys", "record_value"])
def test_a_refused_manifest_is_held_by_no_frame_of_its_error(tmp_path, change):
    # a caller that keeps the error in a reference cycle, as one that stores
    # it in a local of the frame that caught it does, keeps every frame of its
    # traceback and of its causes' until a full garbage collection; none may
    # hold the parsed manifest or a part of it
    path = tmp_path / "bad.manifest.json"
    path.write_text(json.dumps(change(_cutout_manifest_dict())))
    with pytest.raises(FormatError) as info:
        pl.read_manifest(path)
    held, err = [], info.value
    while err is not None:
        tb = err.__traceback__
        while tb is not None:
            frame = tb.tb_frame
            if frame.f_code.co_filename == pl.__file__:
                held += [(frame.f_code.co_name, name) for name, value
                         in frame.f_locals.items() if isinstance(value, (dict, list))]
            tb = tb.tb_next
        err = err.__context__
    assert held == []


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


class _Draws:
    """A stand-in for hypothesis's data object in an @example: each draw returns
    the next of the given values, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
# the config's step_size set to inf, which no config holds and canonical JSON cannot write
@example(data=_Draws("config", True, "step_size", False, math.inf))
# a -0.0 in the config and in a record: written as -0, it would read back as the int 0
@example(data=_Draws("config", True, "cutout_frac", False, -0.0))
@example(data=_Draws("records", True, 0, True, "scores_final", True, "s_con", False, -0.0))
# a lone surrogate, which UTF-8 cannot write, in a record's stream id and in the version
@example(data=_Draws("records", True, 0, True, "stream_id", False, "\ud800"))
@example(data=_Draws("version", False, "\ud800"))
# a config ratio_k other than the header's and the records'
@example(data=_Draws("config", True, "ratio_k", False, 7))
def test_manifest_field_mutations_raise_only_format_error(data):
    # one field, at the top level, in a record or in its scores, is replaced
    # by an arbitrary JSON value or deleted
    mutated = copy.deepcopy(_cutout_manifest_dict())
    target = mutated
    key = data.draw(st.sampled_from(sorted(target)))
    while isinstance(target[key], (list, dict)) and target[key] and data.draw(st.booleans()):
        target = target[key]
        if isinstance(target, list):
            key = data.draw(st.integers(0, len(target) - 1))
        else:
            key = data.draw(st.sampled_from(sorted(target)))
    if isinstance(target, dict) and data.draw(st.booleans()):
        del target[key]
    else:
        target[key] = data.draw(_JSON_VALUES)
    try:
        manifest = pl.ExpansionManifest.from_dict(mutated)
    except FormatError:
        return
    assert manifest.config["ratio_k"] == manifest.ratio_k
    # what is read can be written, and what is written reads back to the same bytes
    with tempfile.TemporaryDirectory() as tmp:
        first, again = Path(tmp, "first.json"), Path(tmp, "again.json")
        pl.write_manifest(manifest, first)
        pl.write_manifest(pl.read_manifest(first), again)
        assert first.read_bytes() == again.read_bytes()


def test_parse_method_closed_set():
    for name in pl.METHOD_IDS:
        assert pl.parse_method(name) == name
    with pytest.raises(ParameterError):
        pl.parse_method("gif_diffusion")


# -------------------------------------------------------------- expansion


@pytest.mark.parametrize("method", pl.METHOD_IDS)
def test_expand_contracts_per_method(method):
    data = _data()
    expanded, manifest = pl.expand_dataset(
        data, method, _small_config(), _bundle(), global_seed=1
    )
    n, k = len(data), 2
    assert len(expanded) == (1 + k) * n
    for i in range(n):
        assert np.array_equal(expanded.images[i].pixels, data.images[i].pixels)
        assert expanded.labels[i] == data.labels[i]
    for j in range(n):
        for i in range(k):
            idx = n + j * k + i
            assert expanded.labels[idx] == data.labels[j]
            px = expanded.images[idx].pixels
            assert np.all(px >= 0.0) and np.all(px <= 1.0)
    assert len(manifest.records) == n * k
    assert [(r["seed_index"], r["variant_index"]) for r in manifest.records] == [
        (j, i) for j in range(n) for i in range(k)
    ]
    assert all(r["method"] == method for r in manifest.records)
    # seed j's streams, keyed by its content as expand_dataset keys them
    streams = [RngStream.root(1).child("method", method, "seed", pl.seed_content_key(record))
               for record in data.records]
    for r in manifest.records:
        stream = streams[r["seed_index"]]
        if method.startswith("selective_"):
            assert r["stream_id"].startswith(f"{stream.id}/seed/0/cand/")
        else:
            assert r["stream_id"] == stream.child("variant", r["variant_index"]).id
    if method in ("gif_embed", "gif_latent"):
        assert all(r["consistent"] for r in manifest.records)
    again, manifest2 = pl.expand_dataset(
        data, method, _small_config(), _bundle(), global_seed=1
    )
    assert manifest2.expanded_digest == manifest.expanded_digest
    assert pl.canonical_json(manifest2.as_dict()) == pl.canonical_json(manifest.as_dict())


@pytest.mark.parametrize("method", ["randlite", "gif_latent"])
def test_expansion_is_pure_per_seed_content(method):
    data = _data()
    n, k = len(data), 2
    gen = np.random.Generator(np.random.Philox(key=5))
    perm = gen.permutation(n)
    shuffled = bk.LabeledDataset(
        images=[data.images[p] for p in perm],
        labels=[data.labels[p] for p in perm],
        class_names=list(data.class_names),
    )
    base, _ = pl.expand_dataset(data, method, _small_config(), _bundle(), global_seed=2)
    moved, _ = pl.expand_dataset(shuffled, method, _small_config(), _bundle(), global_seed=2)
    for new_pos, old_pos in enumerate(perm):
        for i in range(k):
            a = base.images[n + old_pos * k + i].pixels
            b = moved.images[n + new_pos * k + i].pixels
            assert np.array_equal(a, b)


@pytest.mark.parametrize("method", ["gif_embed", "gif_latent"])
def test_ascent_block_layout_keeps_the_bytes(method, monkeypatch):
    # the golden config: gif_latent retries 7 variants and falls back on one,
    # so retry rounds and a fallback run inside multi-seed blocks as well. At
    # tau 1e-3 some seed probabilities are exact zeros, whose entropy and KL
    # terms the row sums add in place with the rest
    data, config = _data(seed=0), pl.ExpansionConfig(ratio_k=3, steps=4)
    for tau in (1.0, 1e-3):
        bundle = _bundle(seed=0)
        bundle = dataclasses.replace(bundle, head=bk.fit_prototype_head(data, bundle.embedder, tau))
        seed_probs = bundle.head.predict_rows(bundle.embedder.embed_images(data.pixels))
        assert (seed_probs == 0.0).any() == (tau < 1.0)
        layouts = []
        for seeds_per_block in (len(data), 1, 3):
            monkeypatch.setattr(pl, "ASCENT_BLOCK_ROWS", config.ratio_k * seeds_per_block)
            expanded, manifest = pl.expand_dataset(data, method, config, bundle, global_seed=0)
            layouts.append((pl.dataset_bytes(expanded), pl.canonical_json(manifest.as_dict())))
        assert layouts[1:] == layouts[:1] * 2


def test_steps_zero_keeps_the_initial_scores():
    # at steps 0 the ascent emits its step-0 rows, and retries and the
    # fallback overwrite some of them (6 retries, 1 fallback here); the
    # digests are those of the per-variant ascent, which scored its initial
    # variants before any retry
    data, bundle = _data(seed=0), _bundle(seed=0)
    config = pl.ExpansionConfig(ratio_k=3, steps=0)
    expanded, manifest = pl.expand_dataset(data, "gif_latent", config, bundle, global_seed=0)
    assert sum(rec["fallback"] for rec in manifest.as_dict()["records"]) == 1
    assert hashlib.sha256(pl.dataset_bytes(expanded)).hexdigest() == (
        "98390069b591750becc80e59b4c969f04f9a401d3f34cf5529e16bedce8ce66f"
    )
    assert hashlib.sha256(pl.canonical_json(manifest.as_dict()).encode()).hexdigest() == (
        "3965ec8ee557656cea95ba75bca2e5ba3611dd9c67ab5d1bf2f0e88fe3a9aafc"
    )


@pytest.mark.parametrize(
    "method", ["cutout", "gridmask", "randlite", "selective_cutout", "selective_randlite"]
)
def test_selective_methods_embed_each_image_once(method, monkeypatch):
    data, config, bundle = _data(), _small_config(), _bundle()
    pool = 4 * config.ratio_k if method.startswith("selective_") else config.ratio_k
    monkeypatch.setattr(pl, "ASCENT_BLOCK_ROWS", 5 * pool)  # blocks of 5, 5 and 2 seeds
    rows = []  # rows embedded by each call
    embed_flat = bk.Embedder.embed_flat
    monkeypatch.setattr(
        bk.Embedder, "embed_flat",
        lambda self, flat: rows.append(np.shape(flat)[:-1]) or embed_flat(self, flat),
    )
    pl.expand_dataset(data, method, config, bundle, global_seed=0)
    # each block's seeds, each with its K variants or default 4K candidates,
    # in one call
    assert rows == [(5, 1 + pool), (5, 1 + pool), (2, 1 + pool)]


BASELINES = ("cutout", "gridmask", "randlite", "selective_cutout", "selective_randlite")


def _one_image_score(seed, image, bundle):
    """(s_con, entropy gain, consistent, qualified) of image against seed,
    from one embed_flat and one lm.classify per image, and the gain from the
    masked entropy sum."""
    def classify(img):
        return lm.classify(bundle.embedder.embed_flat(img.flat()), bundle.head.prototypes,
                           bundle.head.tau)

    def entropy(p):
        q = p[p > 0.0]
        return float(-(q * np.log(q)).sum())

    seed_pred, pred = classify(seed), classify(image)
    target = seed_pred.argmax_class
    gain = entropy(pred.probs) - entropy(seed_pred.probs)
    consistent = pred.argmax_class == target
    return float(pred.probs[target]), gain, consistent, consistent and gain > 0.0


def _one_image_expansion(data, method, config, bundle, global_seed):
    """A baseline's variants, (N, K, 3) scores and flag columns and stream
    ids as the one-image functions make them, one seed at a time: each
    variant by cutout, gridmask or rand_lite with its own stream.generator(),
    scored by _one_image_score, a selective method's picked by
    selective_expand over its seed alone, and s_div from each image's own
    embed_flat."""
    augmenter = {
        "cutout": lambda image, stream: ag.cutout(image, config.cutout_frac, stream),
        "gridmask": lambda image, stream: ag.gridmask(
            image, config.grid_period, config.grid_keep,
            stream.generator().integers(0, config.grid_period, 2)),
        "randlite": ag.rand_lite,
    }[method.removeprefix("selective_")]
    k, root = config.ratio_k, RngStream.root(global_seed)
    variants, scores, consistent, qualified, ids = [], [], [], [], []
    for record, image in zip(data.records, data.images):
        stream = root.child("method", method, "seed", pl.seed_content_key(record))
        if method.startswith("selective_"):
            images, picked = ag.selective_expand([image], augmenter, bundle.embedder, bundle.head,
                                                 k, stream,
                                                 candidate_budget=config.candidate_budget)
        else:
            subs = [stream.child("variant", i) for i in range(k)]
            images = [augmenter(image, sub) for sub in subs]
            picked = [ag.SelectionRecord(0, i, sub.id, *_one_image_score(image, img, bundle))
                      for i, (sub, img) in enumerate(zip(subs, images))]
        embeddings = np.stack([bundle.embedder.embed_flat(img.flat()) for img in images])
        variants.append([img.pixels for img in images])
        scores.append(np.stack([[r.s_con for r in picked], [r.entropy_gain for r in picked],
                                lm.diversity_terms_rows(embeddings)], axis=-1))
        consistent.append([r.consistent for r in picked])
        qualified.append([r.qualified for r in picked])
        ids += [r.stream_id for r in picked]
    return np.array(variants), np.array(scores), np.array(consistent), np.array(qualified), ids


@functools.lru_cache(maxsize=None)
def _non_square():
    data = _data()
    data = bk.LabeledDataset(data.pixels[:, :, 2:14], data.labels, list(data.class_names))
    embedder = bk.make_embedder(data.image_shape, 32, seed=0)
    return data, pl.BackendBundle(None, embedder, bk.fit_prototype_head(data, embedder))


@pytest.mark.parametrize("method", BASELINES)
@pytest.mark.parametrize("seeds, config, block_rows", [
    (12, pl.ExpansionConfig(ratio_k=1), 160),
    (5, pl.ExpansionConfig(ratio_k=3, candidate_budget=3), 3),
    # no patch or hole: every candidate ties, and the stream id orders them,
    # so "cand/10" comes before "cand/2"
    (12, pl.ExpansionConfig(ratio_k=3, candidate_budget=12, cutout_frac=0.0, grid_keep=1.0), 9),
    (7, pl.ExpansionConfig(ratio_k=4, cutout_frac=0.7, grid_period=3, grid_keep=0.4), 16),
    (12, "non-square", 160),
])
def test_block_baselines_equal_the_one_image_functions(method, seeds, config, block_rows,
                                                       monkeypatch):
    # every block layout, from one seed per block to all in one
    monkeypatch.setattr(pl, "ASCENT_BLOCK_ROWS", block_rows)
    data, bundle = _data().subset(range(seeds)), _bundle()
    if config == "non-square":
        (data, bundle), config = _non_square(), pl.ExpansionConfig(ratio_k=2)
        if method.endswith("randlite"):
            with pytest.raises(ShapeError):
                pl.expand_dataset(data, method, config, bundle, global_seed=3)
            return
    expanded, manifest = pl.expand_dataset(data, method, config, bundle, global_seed=3)
    variants, scores, consistent, qualified, ids = _one_image_expansion(data, method, config,
                                                                        bundle, 3)
    assert expanded.pixels[seeds:].tobytes() == variants.tobytes()
    for key in ("scores_initial", "scores_final"):
        assert manifest.columns[key][..., :3].tobytes() == scores.tobytes()
    assert np.array_equal(manifest.columns["consistent"], consistent)
    assert np.array_equal(manifest.columns["qualified"], qualified)
    assert manifest.columns["stream_id"] == ids


def test_expand_rejects_empty_dataset():
    with pytest.raises(InputError):
        pl.expand_dataset(
            _data().subset([]), "cutout", _small_config(), _bundle(), global_seed=0
        )


def test_expansion_config_reals_follow_one_rule():
    for bad in (
        dict(step_size="0.1"),
        dict(step_size=True),
        dict(step_size=math.nan),
        dict(step_size=math.inf),  # a manifest could not write it
        dict(epsilon=True),
        dict(epsilon="1"),
        dict(weights=(1.0, True, 1.0)),
        dict(weights=("1", 1.0, 1.0)),
        dict(weights=5),
        dict(cutout_frac=True),
        dict(cutout_frac="0.4"),
        dict(grid_keep=True),
        dict(grid_keep=None),
    ):
        with pytest.raises(ParameterError):
            pl.ExpansionConfig(**bad)
    # every finite range accepted before still is
    assert pl.ExpansionConfig(step_size=1e308).step_size == 1e308
    cfg = pl.ExpansionConfig(epsilon=0, cutout_frac=1, grid_keep=1, weights=[0, 0, 2])
    assert cfg.weights == (0.0, 0.0, 2.0)


def test_expansion_config_validation():
    # each bad value is rejected whatever the method, before it can reach
    # the phase draw of gridmask or the manifest's canonical JSON; the
    # guidance fields' bad values are in test_guidance.py
    for bad in (
        dict(ratio_k=0),
        dict(ratio_k=2.5),
        dict(ratio_k=4, candidate_budget=2),
        dict(candidate_budget=10.5),
        dict(steps=1.5),
        dict(retries=0.5),
        dict(retries=True),
        dict(epsilon=math.inf),
        dict(epsilon=-math.inf),
        dict(noise_mode="pixel"),
        dict(grid_period=0),
        dict(grid_period=1),
        dict(grid_period=-4),
        dict(grid_period=4.0),
        dict(grid_keep=0.0),
        dict(grid_keep=1.5),
        dict(cutout_frac=-0.1),
        dict(cutout_frac=1.01),
    ):
        with pytest.raises(ParameterError):
            pl.ExpansionConfig(**bad)
    assert pl.ExpansionConfig().as_dict() == dict(
        ratio_k=5, epsilon=None, steps=10, step_size=0.1, weights=[1.0, 1.0, 1.0],
        noise_mode=None, retries=2, candidate_budget=None, cutout_frac=0.4, grid_period=8,
        grid_keep=0.5,
    )
