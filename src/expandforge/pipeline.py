"""Dataset-level expansion: method dispatch, container format, manifest.

The GIFX container is a single self-describing little-endian binary so
round trips are bit-exact, and the manifest is canonical JSON so equal
manifests are byte-equal files. Every synthetic sample is a pure function
of (global_seed, method, config, seed sample bytes): per-seed RNG streams
are keyed by a content hash of the seed, never by its position, so
shuffling or splitting the input cannot change any seed's variants. The
guided methods ascend blocks of seeds as one stack, and the block layout
cannot change a byte either.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import typing
from dataclasses import asdict, dataclass

import numpy as np

from . import augment as ag
from . import guidance as gd
from . import latentmath as lm
from .backends import Embedder, Image, LabeledDataset, LinearCodec, ZeroShotHead, bad_image_index
from .errors import (FormatError, InputError, NumericInputError, ParameterError, check_count,
                     check_real)
from .rng import RngStream

TOOL_VERSION = "0.1.0"

MAGIC = b"GIFX"
FORMAT_VERSION = 1

METHOD_IDS = (
    "gif_embed",
    "gif_latent",
    "cutout",
    "gridmask",
    "randlite",
    "selective_randlite",
    "selective_cutout",
)
# the methods that ascend with guidance, and so decode with the codec
GUIDED_METHODS = tuple(gd.FLOW_DEFAULTS)


def parse_method(name: str) -> str:
    if name not in METHOD_IDS:
        raise ParameterError(
            f"unknown method {name!r}; choose one of {', '.join(METHOD_IDS)}"
        )
    return name


# ------------------------------------------------------------ GIFX container


# the header: magic, version, sample count, height, width, channels, class
# count; then per class a <u4 byte length and its UTF-8 name; then the
# samples, one record_dtype record each
HEADER = struct.Struct("<4s6I")


def record_dtype(image_shape: tuple) -> np.dtype:
    """The one layout of a GIFX sample: its <u4 label, then its <f4 pixels."""
    return np.dtype([("label", "<u4"), ("pixels", "<f4", tuple(image_shape))])


def _gifx(dataset: LabeledDataset):
    """The GIFX header bytes and the (N,) record array of a dataset; the file
    is the header followed by the records' buffer."""
    n = len(dataset)
    if n == 0:
        raise InputError("refusing to serialize an empty dataset")
    header = [HEADER.pack(MAGIC, FORMAT_VERSION, n, *dataset.image_shape, dataset.class_count)]
    for name in dataset.class_names:
        raw = name.encode("utf-8")
        header += [struct.pack("<I", len(raw)), raw]
    records = np.empty(n, record_dtype(dataset.image_shape))
    records["label"] = dataset.labels
    records["pixels"] = dataset.pixels
    return b"".join(header), records


def dataset_bytes(dataset: LabeledDataset) -> bytes:
    """Serialize to the GIFX layout; equal datasets give equal bytes."""
    return b"".join(_gifx(dataset))


def dataset_digest(dataset: LabeledDataset) -> str:
    header, records = _gifx(dataset)
    h = hashlib.sha256(header)
    h.update(records)
    return h.hexdigest()


def write_dataset(dataset: LabeledDataset, path) -> None:
    header, records = _gifx(dataset)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records)


def dataset_from_bytes(buf: bytes) -> LabeledDataset:
    """Parse a GIFX file. The records are read in place, without a copy; every
    error is a FormatError naming the byte offset of what failed."""
    if len(buf) < HEADER.size:
        raise FormatError(f"truncated file: {len(buf)} bytes, the header needs {HEADER.size}")
    magic, version, n, h, w, c, class_count = HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    for offset, what, value in ((8, "sample count", n), (12, "height", h), (16, "width", w),
                                (20, "channels", c)):
        if value == 0:
            raise FormatError(f"zero {what} in header at byte {offset}")
    if class_count < 2:
        raise FormatError(f"{class_count} classes declared at byte 24, need at least 2")
    pos = HEADER.size
    names = []
    for i in range(class_count):
        length = int.from_bytes(buf[pos : pos + 4], "little")
        raw = buf[pos + 4 : pos + 4 + length]
        if pos + 4 + length > len(buf):
            raise FormatError(f"truncated file: class name {i} at byte {pos} runs past the end")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise FormatError(f"undecodable class name {i} at byte {pos + 4}") from err
        pos += 4 + length
    # sizes in Python ints first: a header's dims may not fit any numpy dtype
    size = 4 + 4 * h * w * c
    have = len(buf) - pos
    if have < n * size:
        i = have // size
        raise FormatError(f"truncated file: sample {i} at byte {pos + i * size} runs past the end")
    if have > n * size:
        raise FormatError(
            f"{have - n * size} trailing bytes after the last record at byte {pos + n * size}"
        )
    records = np.frombuffer(buf, record_dtype((h, w, c)), n, pos)
    bad = np.flatnonzero(records["label"] >= class_count)
    if bad.size:
        i = bad[0]
        raise FormatError(f"label {records['label'][i]} of sample {i} at byte {pos + i * size} "
                          f"is out of range for {class_count} classes")
    try:
        return LabeledDataset(records["pixels"], records["label"], names)
    except (NumericInputError, ParameterError) as err:
        i = bad_image_index(records["pixels"])
        raise FormatError(
            f"pixels of sample {i} at byte {pos + i * size + 4} are non-finite or "
            f"outside [0, 1]: {err}"
        ) from err


def read_dataset(path) -> LabeledDataset:
    with open(path, "rb") as fh:
        return dataset_from_bytes(fh.read())


# ---------------------------------------------------------- canonical JSON


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise InputError(f"canonical JSON cannot hold non-finite float {x}")
    return "%.9g" % x


# json.dumps(s, ensure_ascii=False) of a str, without building an encoder per call
_encode_str = json.encoder.encode_basestring


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 9-significant-digit floats."""
    # exact types first, as a manifest holds mostly floats, dicts, lists and
    # str; None, bools, ints, numpy scalars and subclasses take the isinstance
    # chain, where a bool (an int to isinstance) must come before the ints
    kind = type(obj)
    if kind is float:
        return _format_float(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is not dict and kind is not list and kind is not tuple:
        if obj is None:
            return "null"
        if isinstance(obj, (bool, np.bool_)):
            return "true" if obj else "false"
        if isinstance(obj, (int, np.integer)):
            return str(int(obj))
        if isinstance(obj, (float, np.floating)):
            return _format_float(float(obj))
        if isinstance(obj, str):
            return _encode_str(obj)
        if not isinstance(obj, (dict, list, tuple)):
            raise InputError(f"canonical JSON cannot hold {type(obj).__name__}")
    if isinstance(obj, dict):
        for key in obj:  # before sorting, which would raise TypeError on mixed keys
            if not isinstance(key, str):
                raise InputError(f"canonical JSON keys must be strings, got {key!r}")
        inner = ",".join([f"{_encode_str(k)}:{canonical_json(obj[k])}" for k in sorted(obj)])
        return "{" + inner + "}"
    return "[" + ",".join(map(canonical_json, obj)) + "]"


# --------------------------------------------------------------- manifest


@dataclass(eq=False)
class ExpansionManifest:
    """Provenance for one expansion run, one record per synthetic sample; its
    fields are the manifest's keys, in order, and their types."""

    version: str
    global_seed: int
    method: str
    config: dict
    seed_count: int
    ratio_k: int
    records: list
    original_digest: str
    expanded_digest: str

    def validate(self) -> None:
        gd.check_json_types("manifest", self.as_dict(), _MANIFEST_TYPES)
        parse_method(self.method)
        if self.seed_count < 1 or self.ratio_k < 1:
            raise InputError(
                f"manifest needs seed_count >= 1 and ratio_k >= 1, got "
                f"{self.seed_count}, {self.ratio_k}"
            )
        expected = self.seed_count * self.ratio_k
        if len(self.records) != expected:
            raise InputError(
                f"manifest holds {len(self.records)} records, expected "
                f"{self.seed_count} * {self.ratio_k} = {expected}"
            )
        for digest in (self.original_digest, self.expanded_digest):
            if len(digest) != 64 or any(ch not in "0123456789abcdef" for ch in digest):
                raise InputError(f"malformed sha256 digest {digest!r}")
        for i, record in enumerate(self.records):
            gd.check_record(record, f"record {i}")

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in _MANIFEST_TYPES}

    @classmethod
    def from_dict(cls, data: dict) -> "ExpansionManifest":
        if not isinstance(data, dict):
            raise FormatError("manifest root must be a JSON object")
        try:
            manifest = cls(**{key: data[key] for key in _MANIFEST_TYPES})
        except KeyError as err:
            raise FormatError(f"manifest is missing field {err.args[0]!r}") from err
        try:
            manifest.validate()
        except (InputError, ParameterError) as err:
            raise FormatError(f"manifest fails validation: {err}") from err
        return manifest

    def verify_against(self, original: LabeledDataset, expanded: LabeledDataset) -> None:
        if dataset_digest(original) != self.original_digest:
            raise FormatError("original dataset digest does not match the manifest")
        if dataset_digest(expanded) != self.expanded_digest:
            raise FormatError("expanded dataset digest does not match the manifest")


_MANIFEST_TYPES = typing.get_type_hints(ExpansionManifest)


def write_manifest(manifest: ExpansionManifest, path) -> None:
    manifest.validate()
    text = canonical_json(manifest.as_dict()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_manifest(path) -> ExpansionManifest:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # undecodable UTF-8 or malformed JSON
            raise FormatError(f"manifest is not valid UTF-8 JSON: {err}") from err
    return ExpansionManifest.from_dict(data)


# ------------------------------------------------------------ configuration


@dataclass(eq=False)
class ExpansionConfig:
    """Every knob of an expansion run; a guided flow fills in an epsilon or
    noise_mode left None from guidance.FLOW_DEFAULTS."""

    ratio_k: int = 5
    epsilon: float | None = None
    steps: int = 10
    step_size: float = 0.1
    weights: tuple = (1.0, 1.0, 1.0)
    noise_mode: str | None = None
    retries: int = 2
    candidate_budget: int | None = None
    cutout_frac: float = 0.4
    grid_period: int = 8
    grid_keep: float = 0.5

    def __post_init__(self):
        budget = self.ratio_k if self.candidate_budget is None else self.candidate_budget
        check_count("ratio_k", self.ratio_k, 1)
        check_count("candidate_budget", budget, self.ratio_k)
        check_count("steps", self.steps, 0)
        check_count("retries", self.retries, 0)
        if self.epsilon is not None:
            check_real("epsilon", self.epsilon, 0)
        check_real("step_size", self.step_size, 0, open_low=True, finite=False)
        if self.noise_mode is not None and self.noise_mode not in lm.NOISE_MODES:
            raise ParameterError(
                f"noise_mode must be one of {lm.NOISE_MODES}, got {self.noise_mode!r}"
            )
        self.weights = lm.check_weights(self.weights)
        ag.check_cutout_frac(self.cutout_frac)
        ag.check_gridmask_params(self.grid_period, self.grid_keep)

    def as_dict(self) -> dict:
        return {**asdict(self), "weights": list(self.weights)}


@dataclass(eq=False)
class BackendBundle:
    codec: LinearCodec | None  # None for the baselines, which never decode
    embedder: Embedder
    head: ZeroShotHead


# ---------------------------------------------------------------- expansion


def seed_content_key(record: np.void) -> str:
    """Content hash keying a seed's RNG streams, position-independent: the
    sha256 of the seed's GIFX record, the bytes its sample has in the file."""
    return hashlib.sha256(record).hexdigest()


# variant rows (seeds x K) per guided ascent stack: 32 seeds at K=5. A
# block's stacked Jacobians and decoded pixels stay a few hundred kB each,
# so peak memory does not grow with the dataset
ASCENT_BLOCK_ROWS = 160


def _augmenter(method, config):
    """The (image, stream) -> Image transform of a baseline method; a
    selective method augments as its plain counterpart does."""

    def grid(image, stream):
        phase = tuple(int(v) for v in stream.generator().integers(0, config.grid_period, 2))
        return ag.gridmask(image, config.grid_period, config.grid_keep, phase)

    return {
        "cutout": lambda image, stream: ag.cutout(image, config.cutout_frac, stream),
        "gridmask": grid,
        "randlite": ag.rand_lite,
    }[method.removeprefix("selective_")]


def _expand_one_seed(image, method, config, backends, stream):
    """All K variants of one seed by an augmentation baseline: the plain
    methods score their K variants, the selective ones pick K from a scored
    candidate pool (sample_wise)."""
    augmenter = _augmenter(method, config)
    if method.startswith("selective_"):
        images, selected = ag.selective_expand(
            [image], augmenter, backends.embedder, backends.head, config.ratio_k, stream,
            mode="sample_wise", candidate_budget=config.candidate_budget,
        )
    else:
        streams = [stream.child("variant", i) for i in range(config.ratio_k)]
        images = [augmenter(image, sub) for sub in streams]
        selected = ag.score_candidates(image, images, streams, backends.embedder, backends.head)
    return images, gd.selected_records(selected, method, config.weights)


def expand_dataset(
    dataset: LabeledDataset,
    method: str,
    config: ExpansionConfig,
    backends: BackendBundle,
    global_seed: int,
):
    """Originals first and untouched, then K variants per seed, plus manifest."""
    parse_method(method)
    n, k = len(dataset), config.ratio_k
    if n == 0:
        raise InputError("cannot expand an empty dataset")
    root = RngStream.root(global_seed)
    streams = [root.child("method", method, "seed", seed_content_key(record))
               for record in _gifx(dataset)[1]]
    pixels = np.empty((n * (1 + k),) + dataset.image_shape, dtype=np.float32)
    pixels[:n] = dataset.pixels
    variants = pixels[n:].reshape((n, k) + dataset.image_shape)  # seed j's variant i at [j, i]
    records = []
    if method in GUIDED_METHODS:
        # looked up at call time, so a wrapper installed on the module applies
        flow = gd.expand_embedding_block if method == "gif_embed" else gd.expand_latent_block
        per_block = max(1, ASCENT_BLOCK_ROWS // k)
        for start in range(0, n, per_block):
            block = slice(start, start + per_block)
            variants[block], per_seed, _ = flow(dataset.pixels[block], backends.codec,
                                                backends.embedder, backends.head, config,
                                                streams[block])
            records += [rec for seed_records in per_seed for rec in seed_records]
    else:
        for j, stream in enumerate(streams):
            images, seed_records = _expand_one_seed(Image(dataset.pixels[j]), method, config,
                                                    backends, stream)
            for i, image in enumerate(images):
                variants[j, i] = image.pixels
            records += seed_records
    for i, rec in enumerate(records):  # K records per seed, as the manifest requires
        rec["seed_index"] = i // k
    labels = np.concatenate([dataset.labels, np.repeat(dataset.labels, k)])
    expanded = LabeledDataset(pixels, labels, list(dataset.class_names))
    manifest = ExpansionManifest(
        version=TOOL_VERSION,
        global_seed=int(global_seed),
        method=method,
        config=config.as_dict(),
        seed_count=n,
        ratio_k=config.ratio_k,
        records=records,
        original_digest=dataset_digest(dataset),
        expanded_digest=dataset_digest(expanded),
    )
    return expanded, manifest
