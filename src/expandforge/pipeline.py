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
from .backends import Embedder, Image, LabeledDataset, LinearCodec, ZeroShotHead
from .errors import FormatError, InputError, NumericInputError, ParameterError
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


def dataset_bytes(dataset: LabeledDataset) -> bytes:
    """Serialize to the GIFX layout; equal datasets give equal bytes."""
    n = len(dataset.labels)
    if n == 0:
        raise InputError("refusing to serialize an empty dataset")
    h, w, c = dataset.images[0].pixels.shape
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<6I", FORMAT_VERSION, n, h, w, c, dataset.class_count)
    for name in dataset.class_names:
        raw = name.encode("utf-8")
        buf += struct.pack("<I", len(raw))
        buf += raw
    for label, image in zip(dataset.labels, dataset.images):
        buf += struct.pack("<I", int(label))
        buf += image.pixels.astype("<f4").tobytes()
    return bytes(buf)


def dataset_digest(dataset: LabeledDataset) -> str:
    return hashlib.sha256(dataset_bytes(dataset)).hexdigest()


def write_dataset(dataset: LabeledDataset, path) -> None:
    with open(path, "wb") as fh:
        fh.write(dataset_bytes(dataset))


class _Cursor:
    """Sequential reader that reports the byte offset of whatever failed."""

    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"truncated file: needed {n} bytes for {what} at byte {self.pos}, "
                f"have {len(self.buf) - self.pos}"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, what: str) -> int:
        (value,) = struct.unpack("<I", self.take(4, what))
        return value


def dataset_from_bytes(buf: bytes) -> LabeledDataset:
    cur = _Cursor(buf)
    magic = cur.take(4, "magic")
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r} at byte 0, expected {MAGIC!r}")
    version = cur.u32("version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported version {version} at byte 4")
    n = cur.u32("sample count")
    if n == 0:
        raise FormatError("zero samples declared at byte 8")
    dims = []
    for offset, what in ((12, "height"), (16, "width"), (20, "channels")):
        value = cur.u32(what)
        if value == 0:
            raise FormatError(f"zero {what} in header at byte {offset}")
        dims.append(value)
    h, w, c = dims
    class_count = cur.u32("class count")
    if class_count < 2:
        raise FormatError(f"{class_count} classes declared at byte 24, need at least 2")
    names = []
    for i in range(class_count):
        length = cur.u32(f"class name {i} length")
        offset = cur.pos
        raw = cur.take(length, f"class name {i}")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError as err:
            raise FormatError(f"undecodable class name {i} at byte {offset}") from err
    pixel_count = h * w * c
    images = []
    labels = []
    for i in range(n):
        label_offset = cur.pos
        label = cur.u32(f"label of sample {i}")
        if label >= class_count:
            raise FormatError(
                f"label {label} of sample {i} at byte {label_offset} is out of "
                f"range for {class_count} classes"
            )
        pixel_offset = cur.pos
        raw = cur.take(4 * pixel_count, f"pixels of sample {i}")
        try:
            images.append(Image(np.frombuffer(raw, dtype="<f4").reshape(h, w, c)))
        except (NumericInputError, ParameterError) as err:
            raise FormatError(
                f"pixels of sample {i} at byte {pixel_offset} are non-finite or "
                f"outside [0, 1]: {err}"
            ) from err
        labels.append(label)
    if cur.pos != len(buf):
        raise FormatError(
            f"{len(buf) - cur.pos} trailing bytes after the last record at byte {cur.pos}"
        )
    return LabeledDataset(images=images, labels=np.array(labels), class_names=names)


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
        for name, value, low in (
            ("ratio_k", self.ratio_k, 1),
            ("candidate_budget", budget, self.ratio_k),
            ("steps", self.steps, 0),
            ("retries", self.retries, 0),
        ):
            # a bool is an int to isinstance, but no count
            if isinstance(value, bool) or not isinstance(value, int) or value < low:
                raise ParameterError(f"{name} must be an int >= {low}, got {value!r}")
        if self.epsilon is not None and not (0 <= self.epsilon < math.inf):
            raise ParameterError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if not (self.step_size > 0):
            raise ParameterError(f"step_size must be > 0, got {self.step_size}")
        if self.noise_mode is not None and self.noise_mode not in lm.NOISE_MODES:
            raise ParameterError(
                f"noise_mode must be one of {lm.NOISE_MODES}, got {self.noise_mode!r}"
            )
        w = tuple(float(x) for x in self.weights)
        if len(w) != 3 or any(not math.isfinite(x) or x < 0 for x in w):
            raise ParameterError(f"weights must be three nonnegative reals, got {self.weights}")
        self.weights = w
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


def seed_content_key(image: Image, label: int) -> str:
    """Content hash keying a seed's RNG streams: position-independent."""
    h = hashlib.sha256()
    h.update(int(label).to_bytes(4, "little"))
    h.update(image.pixels.astype("<f4").tobytes())
    return h.hexdigest()


# variant rows (seeds x K) per guided ascent stack: 32 seeds at K=5. A
# block's stacked Jacobians and decoded pixels stay a few hundred kB each,
# so peak memory does not grow with the dataset
ASCENT_BLOCK_ROWS = 160


def _expand_guided_block(images, method, config, backends, streams):
    """All K variants of a block of seeds, ascended as one stack; a seed's
    variants are pure in (its stream id, method, config, seed)."""
    # looked up at call time, so a wrapper installed on the module applies
    flow = gd.expand_embedding_block if method == "gif_embed" else gd.expand_latent_block
    variants, records, _ = flow(
        images, backends.codec, backends.embedder, backends.head, config, streams
    )
    return list(zip(variants, records))


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
    n = len(dataset.labels)
    if n == 0:
        raise InputError("cannot expand an empty dataset")
    root = RngStream.root(global_seed)
    streams = [
        root.child("method", method, "seed", seed_content_key(image, label))
        for image, label in zip(dataset.images, dataset.labels)
    ]
    if method in GUIDED_METHODS:
        per_block = max(1, ASCENT_BLOCK_ROWS // config.ratio_k)
        per_seed = []
        for start in range(0, n, per_block):
            block = slice(start, start + per_block)
            per_seed += _expand_guided_block(
                dataset.images[block], method, config, backends, streams[block]
            )
    else:
        per_seed = [
            _expand_one_seed(image, method, config, backends, stream)
            for image, stream in zip(dataset.images, streams)
        ]
    images = list(dataset.images)
    labels = list(dataset.labels)
    all_records = []
    for j, ((variant_images, variant_records), label) in enumerate(zip(per_seed, dataset.labels)):
        for rec in variant_records:
            rec["seed_index"] = j
        images.extend(variant_images)
        labels.extend([label] * len(variant_images))
        all_records.extend(variant_records)

    expanded = LabeledDataset(
        images=images, labels=np.array(labels), class_names=list(dataset.class_names)
    )
    manifest = ExpansionManifest(
        version=TOOL_VERSION,
        global_seed=int(global_seed),
        method=method,
        config=config.as_dict(),
        seed_count=n,
        ratio_k=config.ratio_k,
        records=all_records,
        original_digest=dataset_digest(dataset),
        expanded_digest=dataset_digest(expanded),
    )
    return expanded, manifest
