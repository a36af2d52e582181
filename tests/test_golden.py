"""Golden digests: the exact output bytes of one small run per method.

Determinism tests elsewhere compare two runs inside one process; these pin
the bytes across refactors. At this config gif_latent needs 7 retries and
one seed fallback, so the retry and fallback branches are covered too. A
change to any digest must be deliberate and explained in CHANGES.md.
"""

import functools
import hashlib
import json

import pytest

import expandforge.backends as bk
import expandforge.pipeline as pl

GOLDEN = {
    "gif_embed": (
        "fc4eb278e10fc43296576bc04485361ab6fec136126329225b57598dbc5c388a",
        "1cf27991ead2d8d55c503751d852ae0b9323a1876a52fe8a7108d72817f8cf28",
    ),
    "gif_latent": (
        "f9e825edc60f20be06afb3cd47268fd5837c258d731c2a23f09dfbfa1047f795",
        "86d42890a07b37fd1d85506001cfc299f60666ced6a1e732fb41ce9fba5ea829",
    ),
    "cutout": (
        "93b138dd1cc586a9384b33a59796ebea9ac1f497d85890daf5c423e13fe2be03",
        "68f143f4f9afd4e6bbe4f716840d30e9e0569dd4a57b23257283fd1933868277",
    ),
    "gridmask": (
        "0b17085e4ba788ec5a5ba96314fe2d36517a7d0435a46240718221f321e22485",
        "9cac5f4f6f9a484eca897059c874649854e583c597087a3f2baaddcfaa0745de",
    ),
    "randlite": (
        "f24606e11e59be1e515e412ab25d28f00bb7a65fe12b642d7a356e38a072b017",
        "2296872506f187ad1d6d266c88aefc95018508fea23b8dc0f98c0da1791c9e4e",
    ),
    "selective_randlite": (
        "9e89313e86c04a0a265a55e57e87eabe27b9a064cbe8ab76e733c1a14180d226",
        "4cd891b0c976cdb60cb89c44c548444ffc91de5fca2fb3a0cc1c07437ee49c45",
    ),
    "selective_cutout": (
        "2b316e262fc9aa48a4921a08b64b4ade709e7fe076fee6ad61b657f94d3e351f",
        "a69f67d165850f778e9ec0705d1bf241163061f4a54f454651a994f46c509da2",
    ),
}


# sha256 of json.dumps(manifest.records, sort_keys=True) at the golden config:
# json.dumps writes a float's shortest exact repr, so any drift in the last
# bit of a record score shows, which the 9-digit manifest digests cannot see
RECORDS_FULL_PRECISION = {
    "gif_embed": "791eaf9e294027610cae4c691918237788385698778d12299cd5973ed5a95460",
    "gif_latent": "3c8c0fc80e974e0db4cd51ee010474686ff11d0a8e84ff1c674eda45a714fbd2",
    "cutout": "7a975d2112bedc3d195e4b7b362ea6db3e1b3015dfbb55d0e1084574d42d3e9a",
    "gridmask": "8d40f5fbae605bfbf1e05ee4406cef119904b49aafeb3dd5cd80bedae4d86f68",
    "randlite": "5e2e1443753429437b1a986b7b8335c4cecacde4270eb952fdadda04316adbab",
    "selective_randlite": "8af6b2bf931b00b43307ba2dea3215d548d0d9c326bfbbc6faab7bc64b11f58f",
    "selective_cutout": "608ec53591dc784144b3f496c536eca806bc63dfcedf5f9eaffdc4f2afd0e7d7",
}

# the exact types a record value may have: numpy scalars would render the
# same in canonical JSON but are not what the manifest reader gives back
_PLAIN_TYPES = (float, int, bool, str, dict, list)


@functools.lru_cache(maxsize=None)
def _inputs():
    data = bk.gen_toy_dataset(4, 3, 16, seed=0)
    codec = bk.fit_linear_codec(data, latent_dim=8, latent_shape=(2, 4))
    embedder = bk.make_embedder(data.image_shape, 32, seed=0)
    head = bk.fit_prototype_head(data, embedder)
    return data, pl.BackendBundle(codec=codec, embedder=embedder, head=head)


def test_golden_covers_every_method():
    assert set(GOLDEN) == set(pl.METHOD_IDS) == set(RECORDS_FULL_PRECISION)


@pytest.mark.parametrize("method", pl.METHOD_IDS)
def test_golden_digests(method, tmp_path):
    data, bundle = _inputs()
    config = pl.ExpansionConfig(ratio_k=3, steps=4)
    expanded, manifest = pl.expand_dataset(data, method, config, bundle, global_seed=0)
    dataset_sha = hashlib.sha256(pl.dataset_bytes(expanded)).hexdigest()
    manifest_sha = hashlib.sha256(
        pl.canonical_json(manifest.as_dict()).encode("utf-8")
    ).hexdigest()
    assert (dataset_sha, manifest_sha) == GOLDEN[method]
    # write_manifest renders the records itself: the file must be the same
    # text, and a manifest read back must write the same bytes again
    path, again = tmp_path / "golden.json", tmp_path / "again.json"
    pl.write_manifest(manifest, path)
    text = path.read_bytes()
    assert text == (pl.canonical_json(manifest.as_dict()) + "\n").encode("utf-8")
    assert hashlib.sha256(text[:-1]).hexdigest() == GOLDEN[method][1]
    pl.write_manifest(pl.read_manifest(path), again)
    assert again.read_bytes() == text


def _values(tree):
    """Every value inside a record, containers included."""
    yield tree
    children = tree.values() if type(tree) is dict else tree if type(tree) is list else ()
    for child in children:
        yield from _values(child)


@pytest.mark.parametrize("method", pl.METHOD_IDS)
def test_golden_records_at_full_precision(method):
    data, bundle = _inputs()
    config = pl.ExpansionConfig(ratio_k=3, steps=4)
    _, manifest = pl.expand_dataset(data, method, config, bundle, global_seed=0)
    text = json.dumps(manifest.records, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == RECORDS_FULL_PRECISION[method]
    for record in manifest.records:
        for value in _values(record):
            assert type(value) in _PLAIN_TYPES, (method, value, type(value))
