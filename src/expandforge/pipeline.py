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

import contextlib
import hashlib
import json
import math
import os
import stat
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


def remove_output(path) -> None:
    """Remove a partly written output file. Only a regular file goes: a device
    such as /dev/null stays, and so does a symbolic link (os.remove would
    delete the link, not the file it names), so the check does not follow one."""
    with contextlib.suppress(FileNotFoundError):
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)


@contextlib.contextmanager
def output_file(path, binary: bool = False):
    """Open path for writing, as bytes or as UTF-8 text written untranslated.
    If anything raises once it is open, the file is removed, so no partial
    output stays behind, and an OSError that names no file gets the path."""
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    fh = open(path, "wb" if binary else "w", **text)
    try:
        with fh:
            yield fh
    except BaseException as err:
        remove_output(path)
        if isinstance(err, OSError) and err.filename is None:
            err.filename = os.fspath(path)
        raise


def write_dataset(dataset: LabeledDataset, path) -> None:
    header, records = _gifx(dataset)
    with output_file(path, binary=True) as fh:
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
    return "%.9g" % (x + 0.0)  # -0.0 as 0: JSON reads -0 back as the int 0


# json.dumps(s, ensure_ascii=False) of a str, without building an encoder per call
_encode_str = json.encoder.encode_basestring


def utf8_text(text: str) -> bool:
    """Whether UTF-8 can encode text: not if it holds a lone surrogate, as an
    undecodable command-line byte or a JSON "\\ud800" escape gives."""
    return text.encode("utf-8", "replace").decode("utf-8") == text  # a surrogate becomes "?"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 9-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):  # before the ints: a bool is an int to isinstance
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, dict):
        for key in obj:  # before sorting, which would raise TypeError on mixed keys
            if not isinstance(key, str):
                raise InputError(f"canonical JSON keys must be strings, got {key!r}")
        inner = ",".join([f"{_encode_str(k)}:{canonical_json(obj[k])}" for k in sorted(obj)])
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(canonical_json, obj)) + "]"
    raise InputError(f"canonical JSON cannot hold {type(obj).__name__}")


# --------------------------------------------------------------- manifest


# a record's keys and value types, in the order _records fills them: one
# record per emitted variant, scores_initial and scores_final laid out as
# _SCORE_TYPES
_RECORD_TYPES = {
    "seed_index": int,
    "variant_index": int,
    "method": str,
    "stream_id": str,
    "scores_initial": dict,
    "scores_final": dict,
    "consistent": bool,
    "retry_count": int,
    "fallback": bool,
    "qualified": bool,
}
_SCORE_TYPES = {"s_con": float, "s_ent": float, "s_div": float, "total": float, "weights": list}
_TERMS = tuple(_SCORE_TYPES)[:4]

# a manifest's record columns, each (seed_count, ratio_k) plus its tail, and
# "stream_id", the list of N·K stream ids; a score column holds the _TERMS
_COLUMN_TYPES = {"scores_initial": (np.float64, (4,)), "scores_final": (np.float64, (4,)),
                 "consistent": (np.bool_, ()), "retry_count": (np.int64, ()),
                 "fallback": (np.bool_, ()), "qualified": (np.bool_, ())}


# the types a manifest value of each kind may have; a bool is never a number
# here, though Python counts it as an int
_KINDS = {bool: (bool, np.bool_), int: (int, np.integer),
          float: (int, float, np.integer, np.floating), str: str, dict: dict, list: list}


def _check_types(values: list, kind: type, what: str) -> None:
    """Raise InputError unless each of values is of kind, a str one UTF-8 text:
    the one type rule of a manifest's header and record fields."""
    bad = sorted(t.__name__ for t in set(map(type, values)) if not issubclass(t, _KINDS[kind])
                 or issubclass(t, (bool, np.bool_)) != (kind is bool))
    if bad:
        raise InputError(f"{what} must be {kind.__name__}, got {', '.join(bad)}")
    if kind is str and not utf8_text("".join(values)):
        raise InputError(f"{what} must be UTF-8 text, got a lone surrogate")


def _fields(rows: list, types: dict, what: str) -> dict:
    """{key: [row[key] for row in rows]} for each key of types; each row must be
    an object with exactly those keys, each value of its key's kind."""
    _check_types(rows, dict, what)
    if not all(map(types.keys().__eq__, map(dict.keys, rows))):
        raise InputError(f"{what} must have the keys {list(types)}")
    fields = {key: [row[key] for row in rows] for key in types}
    for key, kind in types.items():
        _check_types(fields[key], kind, f"field {key!r} of {what}")
    return fields


def _check_header(header: dict) -> None:
    """Raise InputError unless a manifest's header fields have their types and
    values, and canonical_json can write its config."""
    _fields([header], _HEADER_TYPES, "the manifest")
    parse_method(header["method"])
    if header["seed_count"] < 1 or header["ratio_k"] < 1:
        raise InputError(f"manifest needs seed_count >= 1 and ratio_k >= 1, got "
                         f"{header['seed_count']}, {header['ratio_k']}")
    for digest in (header["original_digest"], header["expanded_digest"]):
        if len(digest) != 64 or any(ch not in "0123456789abcdef" for ch in digest):
            raise InputError(f"malformed sha256 digest {digest!r}")
    config = header["config"]
    try:
        if (config.keys() != ExpansionConfig.__dataclass_fields__.keys()
                or ExpansionConfig(**config).as_dict() != config
                or config["ratio_k"] != header["ratio_k"]):
            raise ParameterError("not an ExpansionConfig's as_dict() with the header's ratio_k")
        canonical_json(config)  # a config may hold an infinite step_size, a manifest not
    except (ParameterError, InputError) as err:
        raise InputError(f"manifest config {config!r}: {err}") from err


def _check_columns(columns: dict, n: int, k: int) -> None:
    """Raise InputError unless n * k records' columns have their dtypes and
    shapes, finite scores and retry_count >= 0, naming the first bad record."""
    for key, (dtype, tail) in _COLUMN_TYPES.items():
        column, shape = columns.get(key), (n, k, *tail)
        if not isinstance(column, np.ndarray) or (column.dtype, column.shape) != (dtype, shape):
            raise InputError(f"record column {key!r} must be {np.dtype(dtype)} of {shape}")
        bad = np.flatnonzero(~np.isfinite(column) if tail else column < 0)
        if bad.size:
            p, term = divmod(int(bad[0]), len(_TERMS) if tail else 1)
            rule = (f"{key} field {_TERMS[term]!r} must be float" if tail
                    else f"field {key!r} must be >= 0")
            raise InputError(f"record {p} {rule}, got {column.flat[bad[0]].item()!r}")
    ids = columns.get("stream_id")
    if not isinstance(ids, list) or len(ids) != n * k:
        raise InputError(f"record column 'stream_id' must be a list of {n * k} str")
    _check_types(ids, str, "record column 'stream_id'")


def _record_columns(records: list, start: int, header: dict) -> dict:
    """The record columns, one row per record, of records start, start + 1, ...
    under a checked header: one list per field, then one array per column.
    Record p must be seed p // ratio_k's variant p % ratio_k, by the header's
    method and with the config's weights. Each check runs on whole columns;
    only when one fails is each record checked alone, naming the first to fail."""
    m, k, method = len(records), header["ratio_k"], header["method"]
    weights = header["config"]["weights"]
    try:
        fields = _fields(records, _RECORD_TYPES, "the record")
        scores = {key: _fields(fields[key], _SCORE_TYPES, key)
                  for key in ("scores_initial", "scores_final")}
        seed_index, variant_index = divmod(np.arange(start, start + m), k)
        if ([fields["seed_index"], fields["variant_index"], fields["method"],
             *(score["weights"] for score in scores.values())]
                != [seed_index.tolist(), variant_index.tolist(), [method] * m, [weights] * m,
                    [weights] * m]):
            raise InputError(f"the record is not its position's variant by {method} with the "
                             f"config's weights {weights}")
        for key, score in scores.items():  # the config's three weights, if only by value
            _check_types([w for row in score["weights"] for w in row], float, f"weights of {key}")
        columns = {key: np.array(fields[key], dtype)
                   for key, (dtype, tail) in _COLUMN_TYPES.items() if not tail}
        for key, score in scores.items():
            columns[key] = np.stack([np.array(score[t], np.float64) for t in _TERMS], axis=-1)
    except (InputError, OverflowError) as err:  # OverflowError: an int too large for its column
        if m == 1:
            raise InputError(f"record {start}: {err}") from err
        for p in range(m):
            _record_columns(records[p : p + 1], start + p, header)
        raise
    return {**columns, "stream_id": fields["stream_id"]}


def _records(method: str, weights, columns: dict) -> list:
    """The record dicts of record columns, seed j's variant i (record j * K + i)
    from entry [j, i] of each; .tolist() keeps every float's bits."""
    n, k = columns["consistent"].shape
    scores = [[dict(zip(_SCORE_TYPES, (*row, list(weights))))
               for row in columns[key].reshape(n * k, 4).tolist()]
              for key in ("scores_initial", "scores_final")]
    flags = [columns[key].ravel().tolist()
             for key in ("consistent", "retry_count", "fallback", "qualified")]
    rows = zip(*np.indices((n, k)).reshape(2, -1).tolist(), [method] * (n * k),
               columns["stream_id"], *scores, *flags)
    return [dict(zip(_RECORD_TYPES, row)) for row in rows]


def _render_records(method: str, weights, columns: dict):
    """canonical_json(_records(method, weights, columns)) of finite columns,
    yielded in pieces, one per record, each in one fixed layout: sorted keys,
    floats as _format_float writes them."""
    n, k = columns["consistent"].shape
    scores = ('{"s_con":%.9g,"s_div":%.9g,"s_ent":%.9g,"total":%.9g,"weights":'
              + canonical_json(list(weights)) + "}")
    layout = ('{"consistent":%s,"fallback":%s,"method":' + _encode_str(method)
              + ',"qualified":%s,"retry_count":%d,"scores_final":' + scores + ',"scores_initial":'
              + scores + ',"seed_index":%d,"stream_id":%s,"variant_index":%d}')
    flags = [np.where(columns[key], "true", "false").ravel().tolist()
             for key in ("consistent", "fallback", "qualified")]
    # the terms of scores_final, then scores_initial, in sorted key order, each
    # -0.0 made 0.0 as _format_float makes it
    terms = [term for key in ("scores_final", "scores_initial")
             for term in (columns[key].reshape(n * k, 4)[:, [0, 2, 1, 3]] + 0.0).T.tolist()]
    seed_index, variant_index = np.indices((n, k)).reshape(2, -1).tolist()
    rows = zip(*flags, columns["retry_count"].ravel().tolist(), *terms, seed_index,
               map(_encode_str, columns["stream_id"]), variant_index)
    texts = (layout % row for row in rows)
    yield "[" + next(texts)
    for text in texts:
        yield "," + text
    yield "]"


@dataclass(eq=False)
class ExpansionManifest:
    """Provenance for one expansion run, one record per synthetic sample, held
    as record columns (_COLUMN_TYPES); the other fields are the header's keys
    and types. `records` builds the plain record dicts each time it is read."""

    version: str
    global_seed: int
    method: str
    config: dict
    seed_count: int
    ratio_k: int
    columns: dict
    original_digest: str
    expanded_digest: str

    def validate(self) -> None:
        """Raise InputError unless the header and each record column are valid."""
        _check_header({key: getattr(self, key) for key in _HEADER_TYPES})
        _check_columns(self.columns, self.seed_count, self.ratio_k)

    @property
    def records(self) -> list:
        return _records(self.method, self.config["weights"], self.columns)

    def as_dict(self) -> dict:
        return {**{key: getattr(self, key) for key in _HEADER_TYPES}, "records": self.records}

    @classmethod
    def from_dict(cls, data: dict) -> "ExpansionManifest":
        if not isinstance(data, dict):
            raise FormatError("manifest root must be a JSON object")
        try:
            header, records = {key: data[key] for key in _HEADER_TYPES}, data["records"]
        except KeyError as err:
            raise FormatError(f"manifest is missing field {err.args[0]!r}") from err
        try:
            _check_header(header)
            n, k = header["seed_count"], header["ratio_k"]
            if not isinstance(records, list) or len(records) != n * k:
                raise InputError(f"manifest records must be a list of {n} * {k} = {n * k} records")
            columns = _record_columns(records, 0, header)
            for key, (dtype, tail) in _COLUMN_TYPES.items():
                columns[key] = columns[key].reshape(n, k, *tail)
            _check_columns(columns, n, k)
        # OverflowError: a config weight too large for a float
        except (InputError, ParameterError, OverflowError) as err:
            raise FormatError(f"manifest fails validation: {err}") from err
        return cls(**header, columns=columns)

    def verify_against(self, original: LabeledDataset, expanded: LabeledDataset) -> None:
        if dataset_digest(original) != self.original_digest:
            raise FormatError("original dataset digest does not match the manifest")
        if dataset_digest(expanded) != self.expanded_digest:
            raise FormatError("expanded dataset digest does not match the manifest")


_HEADER_TYPES = {key: kind for key, kind in typing.get_type_hints(ExpansionManifest).items()
                 if key != "columns"}


def write_manifest(manifest: ExpansionManifest, path) -> None:
    """Write canonical_json(manifest.as_dict()) and a newline without building a
    record dict or the whole text: the manifest is validated and its header
    rendered before the file is opened, and each record is written as it is
    rendered."""
    manifest.validate()
    parts = {key: [canonical_json(getattr(manifest, key))] for key in _HEADER_TYPES}
    parts["records"] = _render_records(manifest.method, manifest.config["weights"],
                                       manifest.columns)
    with output_file(path) as fh:
        for i, key in enumerate(sorted(parts)):
            fh.write(("," if i else "{") + _encode_str(key) + ":")
            fh.writelines(parts[key])
        fh.write("}\n")


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
    """All K variants of one seed by an augmentation baseline, their stream
    ids and their (K,) columns: the plain methods score their K variants, the
    selective ones pick K from a scored candidate pool (sample_wise). Both
    score columns hold the scores augment.score_candidates measured."""
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
    scores = np.stack([[sel.s_con for sel in selected], [sel.entropy_gain for sel in selected],
                       lm.diversity_terms_rows(np.stack([sel.embedding for sel in selected]))],
                      axis=-1)
    columns = dict(scores_initial=scores, scores_final=scores,
                   consistent=[sel.consistent for sel in selected],
                   qualified=[sel.qualified for sel in selected])
    return images, [sel.stream_id for sel in selected], columns


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
    # the manifest's record columns, filled like variants; a baseline never
    # retries or falls back, and every guided variant qualifies
    columns = dict(scores_initial=np.empty((n, k, 3)), scores_final=np.empty((n, k, 3)),
                   consistent=np.empty((n, k), bool), retry_count=np.zeros((n, k), np.int64),
                   fallback=np.zeros((n, k), bool), qualified=np.ones((n, k), bool))
    if method in GUIDED_METHODS:
        # looked up at call time, so a wrapper installed on the module applies
        flow = gd.expand_embedding_block if method == "gif_embed" else gd.expand_latent_block
        per_block = max(1, ASCENT_BLOCK_ROWS // k)
        for start in range(0, n, per_block):
            block = slice(start, start + per_block)
            variants[block], block_columns, _ = flow(dataset.pixels[block], backends.codec,
                                                     backends.embedder, backends.head, config,
                                                     streams[block])
            for key, column in block_columns.items():
                columns[key][block] = column
        stream_ids = [stream.child("variant", i).id for stream in streams for i in range(k)]
    else:
        stream_ids = []
        for j, stream in enumerate(streams):
            images, ids, seed_columns = _expand_one_seed(Image(dataset.pixels[j]), method, config,
                                                         backends, stream)
            variants[j] = [image.pixels for image in images]
            for key, column in seed_columns.items():
                columns[key][j] = column
            stream_ids += ids
    for key in ("scores_initial", "scores_final"):
        total = lm.weighted_total(*np.moveaxis(columns[key], -1, 0), config.weights)
        columns[key] = np.concatenate([columns[key], total[..., None]], axis=-1)
    columns["stream_id"] = stream_ids
    labels = np.concatenate([dataset.labels, np.repeat(dataset.labels, k)])
    expanded = LabeledDataset(pixels, labels, list(dataset.class_names))
    manifest = ExpansionManifest(
        version=TOOL_VERSION,
        global_seed=int(global_seed),
        method=method,
        config=config.as_dict(),
        seed_count=n,
        ratio_k=config.ratio_k,
        columns=columns,
        original_digest=dataset_digest(dataset),
        expanded_digest=dataset_digest(expanded),
    )
    return expanded, manifest
