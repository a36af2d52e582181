"""The three workloads and the pass that each one repeats.

A pass makes the calls a user makes, in process, through
`expandforge.cli.main`: `expand`, `traineval` and `report` (plus, in `bulk`,
the manifest read-back and probes). Those calls are the timed operations.
After them, untimed, the pass checks every output with `checks`, and the
`augment` pass expands a record-shuffled copy of its input to check that a
seed's variants do not depend on its position.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import expandforge.cli as cli
from hostspeed import HostSpeed
import expandforge.pipeline as pl
from expandforge.backends import make_embedder
from expandforge.errors import FormatError

EPOCHS = 100  # traineval default; the loss-curve check expects this many points
TEST_SEED_OFFSET = 100_000  # test set seed = workload seed + this


@dataclass(frozen=True)
class Workload:
    name: str
    classes: int
    per_class: int
    side: int
    test_per_class: int
    methods: tuple
    ratio: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("guided", 4, 25, 16, 50, ("gif_latent", "gif_embed"), 5),
        Workload("augment", 4, 25, 16, 50,
                 ("cutout", "gridmask", "randlite", "selective_randlite", "selective_cutout"), 5),
        Workload("bulk", 8, 25, 32, 50, ("cutout",), 20),
    )
}

# Each probe writes one wrong-typed or hollow variant of the bulk manifest;
# read_manifest must reject it with FormatError. The offending values are
# fixed, so a probe's outcome does not depend on the workload seed.
PROBES = {
    "seed_count_str": lambda m: {**m, "seed_count": str(m["seed_count"])},
    "records_int": lambda m: {**m, "records": 5},
    "ratio_k_null": lambda m: {**m, "ratio_k": None},
    "digest_int": lambda m: {**m, "original_digest": 0},
    "records_empty": lambda m: {**m, "records": [{} for _ in m["records"]]},
}


@dataclass
class Op:
    name: str
    seconds: float = 0.0  # wall time; 0 for an operation outside the timed loop
    scale: float = 1.0  # host-speed factor measured around it; see hostspeed.py
    outputs: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    probe: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    variants: int = 0
    wall_s: float = 0.0
    retries: int = 0
    fallbacks: int = 0
    digests: dict = field(default_factory=dict)

    def seconds(self, prefix: str = "", reference: bool = True) -> float:
        """Summed time of the matching operations, in reference-host or wall seconds."""
        return sum(op.seconds * (op.scale if reference else 1.0)
                   for op in self.ops if op.name.startswith(prefix))

    @property
    def loop_s(self) -> float:
        return self.seconds(reference=False)


class Runner:
    """Runs passes of one workload on fixed inputs in a working directory."""

    def __init__(self, workload: Workload, seed: int, work: str, train_path: str, test_path: str):
        self.w = workload
        self.seed = seed
        self.work = work
        self.train_path = train_path
        self.test_path = test_path
        self.train = checks.Gifx.load(train_path)
        self.test = checks.Gifx.load(test_path)
        problems = checks.check_input(self.train, workload.classes, workload.per_class, workload.side)
        problems += checks.check_input(self.test, workload.classes, workload.test_per_class, workload.side)
        if problems:
            raise RuntimeError("toygen output is wrong: " + "; ".join(problems))
        self.projection = make_embedder(self.train.shape, 64, 0).projection
        gram = self.projection @ self.projection.T
        if np.max(np.abs(gram - np.eye(gram.shape[0]))) > 1e-8:
            raise RuntimeError("traineval's embedder is not orthonormal")
        order = np.random.default_rng([seed, 1]).permutation(self.train.count)
        if np.array_equal(order, np.arange(order.size)):
            order = order[::-1]
        self.order = order
        self.shuffled_path = self._path("shuffled-input.gifx")
        with open(self.shuffled_path, "wb") as fh:
            fh.write(self.train.permuted_bytes(order))
        self.reference_digests = None
        self.passes = 0
        self.speed = HostSpeed()

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # ------------------------------------------------------------ operations

    def _timed(self, tracer, fn):
        """Run fn as one timed operation; returns (seconds, scale, value, exception, stderr)."""
        before = self.speed.kernel_s()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                value, error = fn(), None
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                value, error = None, exc
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        scale = self.speed.scale(before, self.speed.kernel_s())
        return seconds, scale, value, error, err.getvalue().strip()

    def _cli(self, result, tracer, name, argv, outputs, timed=True):
        seconds, scale, rc, error, stderr = self._timed(tracer, lambda: cli.main(argv))
        op = Op(name, seconds if timed else 0.0, scale, outputs)
        if error is not None:
            op.problems.append(f"{type(error).__name__}: {error}")
        elif rc != 0:
            op.problems.append(f"exit code {rc}: {stderr}")
        result.ops.append(op)
        return op

    def expand(self, result, tracer, method, src_path, tag, timed=True):
        out, manifest = self._path(f"{tag}.gifx"), self._path(f"{tag}.json")
        argv = ["expand", "--in", src_path, "--method", method, "--ratio", str(self.w.ratio),
                "--steps", "10", "--seed", str(self.seed), "--out", out, "--manifest", manifest]
        if not timed:
            return self._cli(result, None, f"shuffled expand {method}", argv, [out, manifest], timed)
        result.variants += self.train.count * self.w.ratio
        return self._cli(result, tracer, f"expand {method}", argv, [out, manifest])

    def traineval(self, result, tracer, method):
        out = self._path(f"{method}.metrics.json")
        argv = ["traineval", "--train", self._path(f"{method}.gifx"), "--test", self.test_path,
                "--method", method, "--ratio", str(self.w.ratio), "--seed", str(self.seed),
                "--out", out]
        return self._cli(result, tracer, f"traineval {method}", argv, [out])

    def report(self, result, tracer):
        out = self._path("report.csv")
        metrics = [self._path(f"{m}.metrics.json") for m in self.w.methods]
        return self._cli(result, tracer, "report", ["report", "--metrics", *metrics, "--out", out], [out])

    def readback(self, result, tracer, method):
        """Read the manifest back and verify it against both GIFX files."""
        def verify():
            manifest = pl.read_manifest(self._path(f"{method}.json"))
            manifest.verify_against(pl.read_dataset(self.train_path),
                                    pl.read_dataset(self._path(f"{method}.gifx")))
            return len(manifest.records)

        seconds, scale, count, error, _ = self._timed(tracer, verify)
        op = Op("manifest read-back", seconds, scale)
        if error is not None:
            op.problems.append(f"{type(error).__name__}: {error}")
        elif count != self.train.count * self.w.ratio:
            op.problems.append(f"read-back manifest holds {count} records")
        result.ops.append(op)

    def probes(self, result, tracer, method):
        with open(self._path(f"{method}.json"), "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        for name, tamper in PROBES.items():
            path = self._path(f"probe-{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tamper(manifest), fh, sort_keys=True)
            seconds, scale, _, error, _ = self._timed(tracer, lambda: pl.read_manifest(path))
            op = Op(f"manifest probe {name}", seconds, scale, probe=True)
            if error is None:
                op.problems.append("read_manifest accepted it")
            elif not isinstance(error, FormatError):
                op.problems.append(f"{type(error).__name__} instead of FormatError: {error}")
            result.ops.append(op)

    # ------------------------------------------------------------------ pass

    def run_pass(self, tracer=None) -> PassResult:
        start = time.perf_counter()
        result = PassResult()
        for method in self.w.methods:
            self.expand(result, tracer, method, self.train_path, method)
            self.traineval(result, tracer, method)
        self.report(result, tracer)
        if self.w.name == "bulk":
            self.readback(result, tracer, self.w.methods[0])
            self.probes(result, tracer, self.w.methods[0])
        for op in result.ops:
            if op.ok:
                op.problems += self._check(result, op)
        self._check_repeats(result)
        if self.w.name == "augment":
            # one method per pass, in turn: every pass attempts the same number
            # of operations and a run of five passes covers every method
            method = self.w.methods[self.passes % len(self.w.methods)]
            op = self.expand(result, None, method, self.shuffled_path, "shuffled", timed=False)
            if op.ok:
                op.problems += checks.check_shuffle(
                    self._path(f"{method}.gifx"), self._path("shuffled.gifx"),
                    self.order, self.train.count, self.w.ratio)
        self.passes += 1
        result.wall_s = time.perf_counter() - start
        return result

    def _check(self, result: PassResult, op: Op) -> list:
        kind, _, method = op.name.partition(" ")
        try:
            if kind == "expand":
                problems, retries, fallbacks = checks.check_expansion(
                    self.train, self.train_path, *op.outputs, method, self.w.ratio)
                result.retries += retries
                result.fallbacks += fallbacks
                return problems
            if kind == "traineval":
                return checks.check_metrics(
                    op.outputs[0], checks.Gifx.load(self._path(f"{method}.gifx")), self.test,
                    self.projection, method, self.w.ratio, self.seed, EPOCHS)
            if kind == "report":
                return checks.check_report(
                    op.outputs[0], [self._path(f"{m}.metrics.json") for m in self.w.methods])
        except Exception as exc:  # a check tripped by malformed output is a failed check
            return [f"check raised {type(exc).__name__}: {exc}"]
        return []

    def _check_repeats(self, result: PassResult):
        """Every output must repeat byte for byte on every pass of the run."""
        for op in result.ops:
            for path in op.outputs:
                if os.path.exists(path):
                    result.digests[path] = checks.sha256_file(path)
        if self.reference_digests is None:
            self.reference_digests = result.digests
        for op in result.ops:
            if any(result.digests.get(p) != self.reference_digests.get(p) for p in op.outputs):
                op.problems.append("output bytes differ from the first pass")
