"""Spans around expandforge's public functions, installed from outside.

A traced run replaces each function or method named in `TARGETS` at its
module or class attribute with a wrapper that records a span (name, start,
end, parent span). Callers look these names up at call time, so every call
made through the package goes through the wrapper; the originals are put
back when the traced region ends. `layer_metrics` folds one region's spans
into the per-layer metrics of the benchmark. The package runs its seeds on
one thread at the default worker count, so one span stack suffices.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import expandforge.augment as ag
import expandforge.backends as bk
import expandforge.cli as cli
import expandforge.evaluation as ev
import expandforge.guidance as gd
import expandforge.latentmath as lm
import expandforge.pipeline as pl
import expandforge.rng as rng


def _file_size(path_index):
    return lambda args, kwargs: os.path.getsize(args[path_index])


def _sample_epochs(args, kwargs):
    dataset, config = args
    return len(dataset) * config.epochs


# (owner, attribute, span name, counter fed after each call or None)
TARGETS = [
    (cli, "main", "cli.main", None),
    (pl, "expand_dataset", "pipeline.expand_dataset", None),
    (pl, "seed_content_key", "pipeline.seed_content_key", None),
    (pl, "dataset_digest", "pipeline.dataset_digest", None),
    (pl, "write_dataset", "pipeline.write_dataset", ("pipeline.bytes_written", _file_size(1))),
    (pl, "write_manifest", "pipeline.write_manifest", ("pipeline.bytes_written", _file_size(1))),
    (pl, "canonical_json", "pipeline.canonical_json", None),
    (pl, "read_dataset", "pipeline.read_dataset", ("pipeline.bytes_read", _file_size(0))),
    (pl, "read_manifest", "pipeline.read_manifest", ("pipeline.bytes_read", _file_size(0))),
    (bk, "gen_toy_dataset", "backends.gen_toy_dataset", None),
    (bk, "fit_linear_codec", "backends.fit", None),
    (bk, "make_embedder", "backends.fit", None),
    (bk, "fit_prototype_head", "backends.fit", None),
    (bk.LinearCodec, "decode_with_mask", "backends.decode", None),
    (bk.Embedder, "embed_flat", "backends.embed", None),
    (bk.Image, "__init__", "backends.image_check", None),
    (lm, "classify_grad", "latentmath.classify_grad", None),
    (lm, "consistency_entropy_grad", "latentmath.consistency_entropy_grad", None),
    (lm, "diversity_score_grad", "latentmath.diversity_score_grad", None),
    (lm, "perturb_and_project", "latentmath.perturb_and_project", None),
    (lm.Latent, "__init__", "latentmath.value_check", None),
    (lm.Prediction, "__init__", "latentmath.value_check", None),
    (lm.PerturbationParams, "__init__", "latentmath.value_check", None),
    (lm.GuidanceScores, "__init__", "latentmath.value_check", None),
    (gd, "optimize_guidance", "guidance.optimize_guidance", None),
    (gd, "expand_seed_latent_flow", "guidance.flow", None),
    (gd, "expand_seed_embedding_flow", "guidance.flow", None),
    (gd, "init_perturbations", "guidance.init_perturbations", None),
    (ag, "cutout", "augment.op", None),
    (ag, "gridmask", "augment.op", None),
    (ag, "rand_lite", "augment.op", None),
    (ag, "selective_expand", "augment.selective_expand", None),
    (rng.RngStream, "generator", "rng.generator", None),
    (ev, "train_classifier", "evaluation.train_classifier", ("evaluation.sample_epochs", _sample_epochs)),
    (ev, "evaluate", "evaluation.evaluate", None),
    (ev, "covering_radius", "evaluation.covering_radius", None),
]

# canonical_json recurses through its module global; only the outermost call is a span
OUTERMOST_ONLY = {"pipeline.canonical_json"}

# per-layer metric -> (unit, how it is folded from spans, span names)
#   "total": summed duration, "self": summed self time, "calls": span count,
#   "counter": a counter fed by the wrappers
LAYER_METRICS = {
    "cli.self_s": ("s", "self", ["cli.main"]),
    "pipeline.expand_self_s": ("s", "self", ["pipeline.expand_dataset"]),
    "pipeline.seed_key_s": ("s", "total", ["pipeline.seed_content_key"]),
    "pipeline.digest_s": ("s", "total", ["pipeline.dataset_digest"]),
    "pipeline.write_s": ("s", "total", ["pipeline.write_dataset", "pipeline.write_manifest"]),
    "pipeline.canonical_json_s": ("s", "total", ["pipeline.canonical_json"]),
    "pipeline.read_s": ("s", "total", ["pipeline.read_dataset", "pipeline.read_manifest"]),
    "pipeline.bytes_written": ("bytes", "counter", ["pipeline.bytes_written"]),
    "pipeline.bytes_read": ("bytes", "counter", ["pipeline.bytes_read"]),
    "backends.toygen_s": ("s", "total", ["backends.gen_toy_dataset"]),
    "backends.fit_s": ("s", "total", ["backends.fit"]),
    "backends.decode_calls": ("count", "calls", ["backends.decode"]),
    "backends.decode_s": ("s", "total", ["backends.decode"]),
    "backends.embed_calls": ("count", "calls", ["backends.embed"]),
    "backends.embed_s": ("s", "total", ["backends.embed"]),
    "backends.image_checks": ("count", "calls", ["backends.image_check"]),
    "backends.image_checks_s": ("s", "total", ["backends.image_check"]),
    "latentmath.classify_calls": ("count", "calls", ["latentmath.classify_grad"]),
    "latentmath.classify_s": ("s", "total", ["latentmath.classify_grad"]),
    "latentmath.grad_s": ("s", "total", ["latentmath.consistency_entropy_grad"]),
    "latentmath.diversity_calls": ("count", "calls", ["latentmath.diversity_score_grad"]),
    "latentmath.diversity_s": ("s", "total", ["latentmath.diversity_score_grad"]),
    "latentmath.project_calls": ("count", "calls", ["latentmath.perturb_and_project"]),
    "latentmath.project_s": ("s", "total", ["latentmath.perturb_and_project"]),
    "latentmath.value_checks": ("count", "calls", ["latentmath.value_check"]),
    "latentmath.value_checks_s": ("s", "total", ["latentmath.value_check"]),
    "guidance.optimize_calls": ("count", "calls", ["guidance.optimize_guidance"]),
    "guidance.optimize_self_s": ("s", "self", ["guidance.optimize_guidance"]),
    "guidance.flow_self_s": ("s", "self", ["guidance.flow"]),
    "guidance.init_draws": ("count", "calls", ["guidance.init_perturbations"]),
    "augment.op_calls": ("count", "calls", ["augment.op"]),
    "augment.op_s": ("s", "total", ["augment.op"]),
    "augment.select_self_s": ("s", "self", ["augment.selective_expand"]),
    "rng.generator_calls": ("count", "calls", ["rng.generator"]),
    "rng.generator_s": ("s", "total", ["rng.generator"]),
    "evaluation.train_s": ("s", "total", ["evaluation.train_classifier"]),
    "evaluation.sample_epochs": ("count", "counter", ["evaluation.sample_epochs"]),
    "evaluation.evaluate_s": ("s", "total", ["evaluation.evaluate"]),
    "evaluation.cover_s": ("s", "total", ["evaluation.covering_radius"]),
}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = defaultdict(int)
        self._stack = []
        self._wrappers = [
            (owner, attr, getattr(owner, attr), self._wrap(owner, attr, name, counter))
            for owner, attr, name, counter in TARGETS
        ]

    def _wrap(self, owner, attr, name, counter):
        fn = getattr(owner, attr)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        outermost = name in OUTERMOST_ONLY

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if outermost:
                setattr(owner, attr, fn)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                if outermost:
                    setattr(owner, attr, wrapper)
                stack.pop()
                spans[index] = (name, start, end, parent)
                if counter is not None:
                    counters[counter[0]] += counter[1](args, kwargs)

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._wrappers:
            setattr(owner, attr, original)

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_metrics(spans, counters) -> dict:
    """Per-layer metric values of one traced region, zero where a layer did no work."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, start, end, _), covered in zip(spans, child_time):
        total[name] += end - start
        own[name] += end - start - covered
        calls[name] += 1
    folds = {"total": total, "self": own, "calls": calls, "counter": counters}
    return {
        metric: sum(folds[how].get(name, 0) for name in names)
        for metric, (_, how, names) in LAYER_METRICS.items()
    }
