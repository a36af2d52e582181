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
        "de8ab727b29bd8d55a1b50decb2a659093cbb919d95900f88122975fadb6b9e1",
        "870dc6b3161267e7e9c2571cf1725fe6e091e55c452982266964b7cc86cadc3b",
    ),
    "gif_latent": (
        "f9e825edc60f20be06afb3cd47268fd5837c258d731c2a23f09dfbfa1047f795",
        "6ee9dc02fc6d7775bfe4dd370d26c662fc17beb52299f7ce49862a467d63bb06",
    ),
    "cutout": (
        "93b138dd1cc586a9384b33a59796ebea9ac1f497d85890daf5c423e13fe2be03",
        "2e2b69f5f68173582c5fd2d0e137065df7b42f51ab8c16be471c11bdb99264a4",
    ),
    "gridmask": (
        "0b17085e4ba788ec5a5ba96314fe2d36517a7d0435a46240718221f321e22485",
        "db0d024dd236347593be5a1f3b5d27cb4e318771abd53ef5a8e4e2dfc22a1807",
    ),
    "randlite": (
        "f24606e11e59be1e515e412ab25d28f00bb7a65fe12b642d7a356e38a072b017",
        "797b937098c5b71c5dd4821f8bb915c04f94aa76f1e8ce5e2d1b5e3cdda58bc5",
    ),
    "selective_randlite": (
        "9e89313e86c04a0a265a55e57e87eabe27b9a064cbe8ab76e733c1a14180d226",
        "c8d3df6a738d29ba67046fb261f40939b2e2c56eb2933dc69c9090fcaf473cef",
    ),
    "selective_cutout": (
        "2b316e262fc9aa48a4921a08b64b4ade709e7fe076fee6ad61b657f94d3e351f",
        "1d57b82109c4d5f56076a884d8c05e3fee9b252d4ac41c69e95cb2c0adfbd264",
    ),
}


# sha256 of json.dumps(manifest.records, sort_keys=True) at the golden config:
# json.dumps writes a float's shortest exact repr, so any drift in the last
# bit of a record score shows, which the 9-digit manifest digests cannot see
RECORDS_FULL_PRECISION = {
    "gif_embed": "bc8b24337b291ce17978f8568c7b58d9f3c095e3105d2c0bd7e5b59f77eb87dd",
    "gif_latent": "e40998deacae4432908878c0ed037a0f1d0cba62a7292c0a70fe09d100b4b819",
    "cutout": "1f873ba506425cac10e1d6b6dd20b1b91a42ff2fb659ee70bb28fdc148b0c78b",
    "gridmask": "e69abf096753302bec4f4899e0fca21400a1b8e5b80fd11b2146351d095729a9",
    "randlite": "ab23d0080160baecaea42b16bc87bd0ab0a6b01f4e0695ed6d0a57fc9c267d4d",
    "selective_randlite": "51bd234e7cd29b8ee1b6c28116927c0275a8c524ecec16a3914ed40b7d53c78e",
    "selective_cutout": "71affa0db2fbb22c7474e37066d449beb682a0844bf190f8a6d05ff1ef38c431",
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
