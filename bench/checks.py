"""Checks on expandforge outputs, made apart from the program.

GIFX files are parsed here with `struct` and numpy, manifests and metrics
with the standard `json` module, and digests come from `hashlib`. Nothing in
this module calls into expandforge: every check either re-derives a fact from
the raw bytes or tests a property the expansion method must have. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import struct

import numpy as np

MAGIC = b"GIFX"
FORMAT_VERSION = 1
GUIDED = ("gif_latent", "gif_embed")
SELECTIVE = ("selective_randlite", "selective_cutout")
# CLI defaults the workloads rely on
CUTOUT_FRAC = 0.4
GRID_PERIOD = 8
GRID_KEEP = 0.5
# rows per step of the array checks; small, so that the checks never set the
# workload process's peak resident set
CHUNK = 4
REPORT_COLUMNS = ["method", "ratio", "seed", "accuracy", "macro_accuracy", "covering_radius"]


class Gifx:
    """One GIFX container: header fields plus fixed-size records as arrays."""

    def __init__(self, raw: bytes):
        if raw[:4] != MAGIC:
            raise ValueError(f"bad magic {raw[:4]!r}")
        if len(raw) < 28:
            raise ValueError("header truncated")
        version, n, h, w, c, classes = struct.unpack_from("<6I", raw, 4)
        if version != FORMAT_VERSION:
            raise ValueError(f"version {version}, expected {FORMAT_VERSION}")
        pos = 28
        names = []
        for _ in range(classes):
            (length,) = struct.unpack_from("<I", raw, pos)
            names.append(raw[pos + 4 : pos + 4 + length].decode("utf-8"))
            pos += 4 + length
        record = 4 + 4 * h * w * c
        if len(raw) - pos != n * record:
            raise ValueError(f"{len(raw) - pos} record bytes, expected {n} x {record}")
        self.raw = raw
        self.count = n
        self.shape = (h, w, c)
        self.class_names = names
        self.header = raw[:pos]
        self.records = np.frombuffer(raw, dtype=np.uint8, offset=pos).reshape(n, record)
        layout = np.dtype([("label", "<u4"), ("px", "<f4", (h, w, c))])
        parsed = np.frombuffer(raw, dtype=layout, offset=pos, count=n)
        self.labels = parsed["label"]
        self.pixels = parsed["px"]

    @classmethod
    def load(cls, path) -> "Gifx":
        with open(path, "rb") as fh:
            return cls(fh.read())

    def permuted_bytes(self, order) -> bytes:
        """The same container with its records in another order."""
        return self.header + self.records[np.asarray(order)].tobytes()


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _sorted_pairs(pairs):
    keys = [k for k, _ in pairs]
    if keys != sorted(keys):
        raise ValueError(f"object keys out of order: {keys}")
    return dict(pairs)


def load_canonical_json(path):
    """Parse a JSON file, rejecting any object whose keys are not sorted."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_sorted_pairs)


def check_input(data: Gifx, classes: int, per_class: int, side: int) -> list:
    problems = []
    if data.count != classes * per_class or data.shape != (side, side, 1):
        problems.append(f"input holds {data.count} x {data.shape}, expected "
                        f"{classes * per_class} x {(side, side, 1)}")
    elif sorted(np.bincount(data.labels, minlength=classes).tolist()) != [per_class] * classes:
        problems.append("input labels are not balanced over the classes")
    problems += _pixel_problems(data.pixels, "input")
    return problems


def _pixel_problems(pixels: np.ndarray, what: str) -> list:
    # min and max are nan when any pixel is nan, and inf fails the range test
    if not (pixels.min() >= 0.0 and pixels.max() <= 1.0):
        return [f"{what} holds pixels that are not finite or fall outside [0, 1]"]
    return []


def check_expansion(src: Gifx, src_path, out_path, manifest_path, method: str, k: int):
    """Check one `expand` result; returns (problems, retries, fallbacks)."""
    problems, out_digest = _expanded_gifx_problems(src, out_path, method, k)
    try:
        manifest = load_canonical_json(manifest_path)
    except (OSError, ValueError) as err:
        return problems + [f"manifest unreadable: {err}"], 0, 0
    if manifest.get("original_digest") != sha256_file(src_path):
        problems.append("manifest original_digest is not the sha256 of the input file")
    if manifest.get("expanded_digest") != out_digest:
        problems.append("manifest expanded_digest is not the sha256 of the expanded file")
    n = src.count
    if (manifest.get("method"), manifest.get("seed_count"), manifest.get("ratio_k")) != (method, n, k):
        problems.append("manifest method, seed_count or ratio_k is wrong")
    records = manifest.get("records")
    if not isinstance(records, list):
        return problems + ["manifest records is not a list"], 0, 0
    retries, fallbacks = _record_problems(problems, records, manifest, method, n, k)
    return problems, retries, fallbacks


def _expanded_gifx_problems(src: Gifx, out_path, method: str, k: int):
    """Problems of the expanded container itself, plus its sha256."""
    out = Gifx.load(out_path)
    n = src.count
    if out.count != n * (1 + k):
        return [f"expanded GIFX holds {out.count} records, expected {n} * (1 + {k})"], None
    problems = []
    if out.shape != src.shape or out.class_names != src.class_names:
        problems.append("expanded GIFX header differs from the input's")
    if not np.array_equal(out.records[:n], src.records):
        problems.append("the first N records are not the input records byte for byte")
    if not np.array_equal(out.labels[n:].reshape(n, k), np.repeat(src.labels[:, None], k, 1)):
        problems.append("a variant does not carry its seed's label")
    problems += _pixel_problems(out.pixels, "expanded GIFX")
    shape_check = {"cutout": _cutout_problems, "selective_cutout": _cutout_problems,
                   "gridmask": _gridmask_problems}.get(method)
    if shape_check is not None:
        variants = out.pixels[n:].reshape((n, k) + src.shape)
        step = CHUNK * 8
        for j in range(0, n, step):
            problems += shape_check(src.pixels[j : j + step], variants[j : j + step])
    return problems, hashlib.sha256(out.raw).hexdigest()


def _record_problems(problems, records, manifest, method, n, k):
    grid = sorted((r["seed_index"], r["variant_index"]) for r in records)
    if grid != [(j, i) for j in range(n) for i in range(k)]:
        problems.append("(seed_index, variant_index) does not cover the N x K grid once")
    retries = sum(r["retry_count"] for r in records)
    fallbacks = sum(1 for r in records if r["fallback"])
    budget = manifest["config"]["retries"]
    if any(r["fallback"] and r["retry_count"] != budget + 1 for r in records):
        problems.append("a fallback record has retry_count != retries + 1")
    if method in GUIDED and not all(r["consistent"] for r in records):
        problems.append("a guided record is not consistent")
    if method in SELECTIVE and any(
        r["qualified"] and not (r["consistent"] and r["scores_final"]["s_ent"] > 0)
        for r in records
    ):
        problems.append("a qualified selective record is inconsistent or has s_ent <= 0")
    return retries, fallbacks


def _changed(seeds: np.ndarray, variants: np.ndarray) -> np.ndarray:
    """(N, K, H, W) mask of pixels where a variant differs from its seed."""
    return np.any(variants != seeds[:, None], axis=-1)


def _cutout_problems(seeds, variants) -> list:
    """Changes lie in one square of side round(0.4 * side), all set to 0.5."""
    h, w = seeds.shape[1:3]
    side = int(round(CUTOUT_FRAC * min(h, w)))
    diff = _changed(seeds, variants)
    if not np.all(variants[diff] == 0.5):
        return ["a cutout pixel outside the patch changed, or the patch is not 0.5"]
    for axis, size in ((3, h), (2, w)):
        hit = diff.any(axis=axis)
        first = np.argmax(hit, axis=-1)
        last = size - 1 - np.argmax(hit[..., ::-1], axis=-1)
        extent = np.where(hit.any(axis=-1), last - first + 1, 0)
        if extent.max() > side:
            return [f"cutout changes span {extent.max()} pixels, more than the side {side}"]
    return []


def _gridmask_problems(seeds, variants) -> list:
    """Each variant is its seed with the whole hole grid of one phase at 0.5."""
    h, w = seeds.shape[1:3]
    hole = int(round((1.0 - GRID_KEEP) * GRID_PERIOD))
    keep = ~_changed(seeds, variants)
    half = np.all(variants == 0.5, axis=-1)
    found = np.zeros(keep.shape[:2], dtype=bool)
    for py in range(GRID_PERIOD):
        rows = (np.arange(h) + py) % GRID_PERIOD < hole
        for px in range(GRID_PERIOD):
            holes = rows[:, None] & ((np.arange(w) + px) % GRID_PERIOD < hole)[None, :]
            found |= np.all(np.where(holes, half, keep), axis=(2, 3))
    if not found.all():
        return [f"{int((~found).sum())} gridmask variants are not a period-{GRID_PERIOD} hole grid"]
    return []


def check_shuffle(plain_path, shuffled_path, order, n: int, k: int) -> list:
    """Variants of each seed must not depend on where the seed sits."""
    try:
        plain, moved = Gifx.load(plain_path), Gifx.load(shuffled_path)
    except (OSError, ValueError, UnicodeDecodeError) as err:
        return [f"expanded GIFX unreadable: {err}"]
    if plain.count != n * (1 + k) or moved.count != plain.count:
        return ["shuffled expansion holds the wrong number of records"]
    rec = plain.records.shape[1]
    mine = plain.records[n:].reshape(n, k * rec)
    theirs = moved.records[n:].reshape(n, k * rec)
    # shuffled seed j is plain seed order[j]
    if not np.array_equal(mine[np.asarray(order)], theirs):
        return ["a seed's variants changed when the input records were shuffled"]
    return []


def covering_radius(cover: np.ndarray, probe: np.ndarray, chunk: int = CHUNK) -> float:
    """Largest distance from a probe point to its nearest cover point, by brute force."""
    worst = 0.0
    for start in range(0, probe.shape[0], chunk):
        diff = probe[start : start + chunk, None, :] - cover[None, :, :]
        nearest = np.sqrt(np.einsum("pcd,pcd->pc", diff, diff)).min(axis=1)
        worst = max(worst, float(nearest.max()))
    return worst


def embed(data: Gifx, projection: np.ndarray) -> np.ndarray:
    flat = data.pixels.reshape(data.count, -1)
    step = CHUNK * 128
    return np.concatenate([(flat[i : i + step].astype(np.float64) - 0.5) @ projection.T
                           for i in range(0, data.count, step)])


def check_metrics(metrics_path, train: Gifx, test: Gifx, projection, method, ratio, seed,
                  epochs: int) -> list:
    try:
        m = load_canonical_json(metrics_path)
    except (OSError, ValueError) as err:
        return [f"metrics file unreadable: {err}"]
    problems = []
    if (m.get("method"), m.get("ratio"), m.get("seed")) != (method, ratio, seed):
        problems.append("metrics file does not echo method, ratio and seed")
    classes = len(train.class_names)
    if not m.get("accuracy", 0.0) > 1.0 / classes:
        problems.append(f"accuracy {m.get('accuracy')} is not above chance 1/{classes}")
    curve = m.get("train_loss_curve") or []
    if len(curve) != epochs or not curve[-1] < curve[0]:
        problems.append("training loss did not fall over the epochs")
    reported = m.get("covering_radius")
    expected = covering_radius(embed(train, projection), embed(test, projection))
    # the file keeps 9 significant digits, so allow for that rounding on top of 1e-9
    tol = 1e-9 + 0.5 * 10.0 ** (math.floor(math.log10(expected)) - 8)
    if not isinstance(reported, (int, float)) or abs(reported - expected) > tol:
        problems.append(f"covering radius {reported} differs from brute force {expected!r}")
    return problems


def check_report(csv_path, metrics_paths) -> list:
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        metrics = [load_canonical_json(p) for p in metrics_paths]
    except (OSError, ValueError) as err:
        return [f"report inputs unreadable: {err}"]
    if not rows or rows[0] != REPORT_COLUMNS or len(rows) != 1 + len(metrics):
        return ["report CSV header or row count is wrong"]
    for row, m in zip(rows[1:], metrics):
        if row[:3] != [m["method"], str(m["ratio"]), str(m["seed"])] or [
            float(v) for v in row[3:]
        ] != [m[c] for c in REPORT_COLUMNS[3:]]:
            return ["a report row does not match its metrics file"]
    return []
