"""Self-test of the benchmark's checks: they pass on genuine output and fire on tampering.

    python3 bench/selftest.py

Runs a tiny toygen -> expand (cutout) -> traineval loop through the CLI,
checks the genuine files, then checks tampered copies: a flipped pixel
byte, a wrong variant label, manifest keys out of order, and a nudged
covering radius. Exits 0 only if the genuine files pass and each tampered
copy is caught by the check named for it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import struct
import sys
import tempfile

import numpy as np

from run import ROOT, _import_package

K = 2


def _cli(*argv):
    import expandforge.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"expandforge {' '.join(argv)} failed")


def main() -> int:
    _import_package()
    import checks
    from expandforge.backends import make_embedder

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_work")
    path = lambda name: os.path.join(work, name)
    try:
        _cli("toygen", "--classes", "4", "--per-class", "25", "--size", "16", "--seed", "3",
             "--out", path("train.gifx"))
        _cli("toygen", "--classes", "4", "--per-class", "25", "--size", "16", "--seed", "4",
             "--out", path("test.gifx"))
        _cli("expand", "--in", path("train.gifx"), "--method", "cutout", "--ratio", str(K),
             "--seed", "3", "--out", path("big.gifx"), "--manifest", path("big.json"))
        _cli("traineval", "--train", path("big.gifx"), "--test", path("test.gifx"),
             "--method", "cutout", "--ratio", str(K), "--seed", "3", "--out", path("m.json"))
        src, big = checks.Gifx.load(path("train.gifx")), checks.Gifx.load(path("big.gifx"))
        test = checks.Gifx.load(path("test.gifx"))
        projection = make_embedder(src.shape, 64, 0).projection

        def expansion(gifx="big.gifx", manifest="big.json"):
            return checks.check_expansion(src, path("train.gifx"), path(gifx), path(manifest),
                                          "cutout", K)[0]

        def metrics(name="m.json"):
            return checks.check_metrics(path(name), big, test, projection, "cutout", K, 3, 100)

        cases = {"genuine expansion": (expansion(), None),
                 "genuine metrics": (metrics(), None)}

        n, record = src.count, big.records.shape[1]
        header = len(big.header)

        # a pixel byte of the first variant, at a pixel its cutout left alone
        unchanged = np.flatnonzero(big.pixels[n].ravel() == src.pixels[0].ravel())
        flipped = bytearray(big.raw)
        flipped[header + n * record + 4 + 4 * int(unchanged[0])] ^= 0x01
        _write(path("flipped.gifx"), flipped)
        cases["flipped pixel byte"] = (expansion("flipped.gifx"), "outside the patch changed")

        relabelled = bytearray(big.raw)
        offset = header + n * record
        struct.pack_into("<I", relabelled, offset, (int(big.labels[n]) + 1) % len(big.class_names))
        _write(path("relabelled.gifx"), relabelled)
        cases["wrong variant label"] = (expansion("relabelled.gifx"), "carry its seed's label")

        with open(path("big.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        _write(path("unsorted.json"),
               json.dumps(dict(reversed(list(manifest.items())))).encode("utf-8"))
        cases["manifest keys out of order"] = (expansion(manifest="unsorted.json"),
                                               "keys out of order")

        with open(path("m.json"), encoding="utf-8") as fh:
            nudged = json.load(fh)
        nudged["covering_radius"] += 1e-6
        _write(path("nudged.json"), json.dumps(nudged, sort_keys=True).encode("utf-8"))
        cases["nudged covering radius"] = (metrics("nudged.json"), "differs from brute force")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()

    status = 0
    for name, (problems, expected) in cases.items():
        if expected is None:
            ok = not problems
        else:
            ok = any(expected in p for p in problems)
        status |= not ok
        print(f"{'ok ' if ok else 'BAD'} {name}: {'; '.join(problems) or 'no problems'}")
    return status


def _write(path, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


if __name__ == "__main__":
    sys.exit(main())
