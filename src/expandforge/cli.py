"""Command-line front end: toy data, expansion, train/eval, CSV reports.

Exit codes: 0 success, 1 usage error (bad flags or parameters), 2 data or
format error (unreadable/invalid inputs, backend failures), 3 numeric
divergence during optimization. EXPANDFORGE_SEED fills in --seed whenever
the flag is absent. All outputs are byte-identical across reruns with
equal flags and inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys

from . import augment as ag
from . import backends as bk
from . import evaluation as ev
from . import guidance as gd
from . import latentmath as lm
from . import pipeline as pl
from .errors import (ExpandForgeError, FormatError, InputError, NumericDivergenceError,
                     ParameterError)

SEED_ENV = "EXPANDFORGE_SEED"


def _resolve_seed(value) -> int:
    if value is not None:
        return int(value)
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"environment variable {SEED_ENV}={raw!r} is not an integer")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="expandforge",
        description="Guided dataset expansion with augmentation baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    toygen = sub.add_parser("toygen", help="generate a toy shape dataset")
    toygen.add_argument("--classes", type=int, default=4, help="shape families (default 4)")
    toygen.add_argument("--per-class", type=int, default=25, help="samples per class (default 25)")
    toygen.add_argument("--size", type=int, default=16, help="square image side (default 16)")
    toygen.add_argument("--seed", type=int, default=None,
                        help=f"global seed (default 0, or ${SEED_ENV} when set)")
    toygen.add_argument("--out", required=True, help="output GIFX path")

    expand = sub.add_parser("expand", help="expand a dataset with one method")
    expand.add_argument("--in", dest="input", required=True, help="input GIFX path")
    expand.add_argument("--method", required=True, choices=pl.METHOD_IDS,
                        help="expansion method")
    cfg = pl.ExpansionConfig()
    per_flow = lambda key: ", ".join(f"{d[key]} for {m}" for m, d in gd.FLOW_DEFAULTS.items())
    expand.add_argument("--ratio", dest="ratio_k", metavar="RATIO", type=int, default=cfg.ratio_k,
                        help=f"synthetic variants per seed K (default {cfg.ratio_k})")
    expand.add_argument("--epsilon", type=float, default=cfg.epsilon,
                        help=f"L-inf ball radius (default: {per_flow('epsilon')})")
    expand.add_argument("--steps", type=int, default=cfg.steps,
                        help=f"ascent iterations (default {cfg.steps})")
    expand.add_argument("--step-size", type=float, default=cfg.step_size,
                        help=f"ascent rate (default {cfg.step_size})")
    w_con, w_ent, w_div = cfg.weights
    expand.add_argument("--lambda-con", type=float, default=w_con,
                        help=f"consistency weight (default {w_con})")
    expand.add_argument("--lambda-ent", type=float, default=w_ent,
                        help=f"entropy-gain weight (default {w_ent})")
    expand.add_argument("--lambda-div", type=float, default=w_div,
                        help=f"diversity weight (default {w_div})")
    expand.add_argument("--noise-mode", choices=lm.NOISE_MODES, default=cfg.noise_mode,
                        help=f"perturbation tying (default: {per_flow('noise_mode')})")
    expand.add_argument("--retries", type=int, default=cfg.retries,
                        help=f"consistency retry budget (default {cfg.retries})")
    expand.add_argument("--budget", dest="candidate_budget", metavar="BUDGET", type=int,
                        default=cfg.candidate_budget,
                        help=f"candidate budget for selective methods "
                             f"(default {ag.CANDIDATES_PER_VARIANT}*K)")
    expand.add_argument("--cutout-frac", type=float, default=cfg.cutout_frac,
                        help=f"cutout patch fraction (default {cfg.cutout_frac})")
    expand.add_argument("--grid-period", type=int, default=cfg.grid_period,
                        help=f"gridmask period in pixels (default {cfg.grid_period})")
    expand.add_argument("--grid-keep", type=float, default=cfg.grid_keep,
                        help=f"gridmask keep ratio (default {cfg.grid_keep})")
    expand.add_argument("--latent-dim", type=int, default=32,
                        help="codec latent dimension (default 32)")
    expand.add_argument("--latent-tokens", type=int, default=4,
                        help="token rows of the latent grid (default 4)")
    expand.add_argument("--embed-dim", type=int, default=64,
                        help="scoring embedding dimension (default 64)")
    expand.add_argument("--embed-seed", type=int, default=0,
                        help="embedder construction seed (default 0)")
    expand.add_argument("--tau", type=float, default=1.0,
                        help="softmax temperature of the zero-shot head (default 1.0)")
    expand.add_argument("--exemplars", default=None,
                        help="GIFX file for head prototypes (default: the input dataset)")
    expand.add_argument("--seed", type=int, default=None,
                        help=f"global seed (default 0, or ${SEED_ENV} when set)")
    expand.add_argument("--out", required=True, help="expanded GIFX path")
    expand.add_argument("--manifest", default=None,
                        help="manifest JSON path (default: <out>.manifest.json)")

    traineval = sub.add_parser("traineval", help="train the probe classifier and evaluate")
    traineval.add_argument("--train", required=True, help="training GIFX path")
    traineval.add_argument("--test", required=True, help="test GIFX path")
    clf = ev.ClassifierConfig()
    traineval.add_argument("--hidden", type=int, default=clf.hidden,
                           help=f"hidden units (default {clf.hidden})")
    traineval.add_argument("--epochs", type=int, default=clf.epochs,
                           help=f"training epochs (default {clf.epochs})")
    traineval.add_argument("--lr", type=float, default=clf.lr,
                           help=f"learning rate (default {clf.lr})")
    traineval.add_argument("--embed-dim", type=int, default=64,
                           help="embedding dimension for covering radius (default 64)")
    traineval.add_argument("--embed-seed", type=int, default=0,
                           help="embedder construction seed (default 0)")
    traineval.add_argument("--method", default="",
                           help="method tag copied into the metrics file (default empty)")
    traineval.add_argument("--ratio", type=int, default=0,
                           help="expansion ratio tag copied into the metrics file (default 0)")
    traineval.add_argument("--seed", type=int, default=None,
                           help=f"classifier seed (default 0, or ${SEED_ENV} when set)")
    traineval.add_argument("--out", required=True, help="metrics JSON path")

    report = sub.add_parser("report", help="join metrics files into a CSV")
    report.add_argument("--metrics", nargs="+", required=True,
                        help="metrics JSON files, one row each")
    report.add_argument("--out", required=True, help="output CSV path")
    return parser


def _check_outputs(inputs, outputs) -> None:
    """Raise ParameterError, before anything is read or written, when an
    output path names an input or another output, links resolved."""
    taken = {os.path.realpath(path) for path in inputs}
    for path in outputs:
        real = os.path.realpath(path)
        if real in taken:
            raise ParameterError(f"output {path} names an input or another output")
        taken.add(real)


def _cmd_toygen(args) -> int:
    seed = _resolve_seed(args.seed)
    data = bk.gen_toy_dataset(args.classes, args.per_class, args.size, seed)
    pl.write_dataset(data, args.out)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_expand(args) -> int:
    seed = _resolve_seed(args.seed)
    manifest_path = args.manifest or f"{args.out}.manifest.json"
    _check_outputs([args.input, args.exemplars or args.input], [args.out, manifest_path])
    config = pl.ExpansionConfig(  # each config flag but the weights has its field's name
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(pl.ExpansionConfig)
           if f.name != "weights"},
        weights=(args.lambda_con, args.lambda_ent, args.lambda_div),
    )
    if args.latent_tokens < 1 or args.latent_dim % args.latent_tokens != 0:
        raise ParameterError(f"--latent-tokens {args.latent_tokens} must divide "
                             f"--latent-dim {args.latent_dim}")
    bk.check_tau(args.tau)
    data = pl.read_dataset(args.input)
    exemplars = pl.read_dataset(args.exemplars) if args.exemplars else data
    if exemplars.class_names != data.class_names:
        raise InputError(f"exemplars {args.exemplars} have classes {exemplars.class_names}, "
                         f"not the input's {data.class_names}")
    embedder = bk.make_embedder(data.image_shape, args.embed_dim, args.embed_seed)
    codec = None
    if args.method in pl.GUIDED_METHODS:
        codec = bk.fit_linear_codec(
            data,
            latent_dim=args.latent_dim,
            latent_shape=(args.latent_tokens, args.latent_dim // args.latent_tokens),
        )
    head = bk.fit_prototype_head(exemplars, embedder, tau=args.tau)
    bundle = pl.BackendBundle(codec=codec, embedder=embedder, head=head)
    expanded, manifest = pl.expand_dataset(data, args.method, config, bundle, seed)
    # the manifest first: write_manifest validates and renders it before it
    # opens the file, so a manifest that cannot be written leaves neither file
    pl.write_manifest(manifest, manifest_path)
    try:
        pl.write_dataset(expanded, args.out)
    except OSError:
        # a manifest whose expanded_digest names no file must not stay behind
        pl.remove_output(manifest_path)
        raise
    print(
        f"expanded {len(data)} -> {len(expanded)} samples with {args.method}; "
        f"wrote {args.out} and {manifest_path}"
    )
    return 0


def _cmd_traineval(args) -> int:
    seed = _resolve_seed(args.seed)
    _check_outputs([args.train, args.test], [args.out])
    if not pl.utf8_text(args.method):
        raise ParameterError(f"--method {args.method!r} is not UTF-8 text")
    config = ev.ClassifierConfig(hidden=args.hidden, epochs=args.epochs, lr=args.lr, seed=seed)
    train = pl.read_dataset(args.train)
    test = pl.read_dataset(args.test)
    if (test.class_names, test.image_shape) != (train.class_names, train.image_shape):
        raise InputError(f"test set {args.test} has classes {test.class_names} of shape "
                         f"{test.image_shape}, not {train.class_names} of {train.image_shape}")
    embedder = bk.make_embedder(train.image_shape, args.embed_dim, args.embed_seed)
    model = ev.train_classifier(train, config)
    metrics = ev.evaluate(model, test)
    radius = ev.covering_radius(embedder.embed_dataset(train), embedder.embed_dataset(test))
    payload = {
        "method": args.method,
        "ratio": args.ratio,
        "seed": seed,
        "covering_radius": radius,
        **metrics.as_dict(),
    }
    # rendered before the file is opened, so a payload that cannot be written
    # (a non-finite metric) leaves an earlier file at --out as it was
    text = pl.canonical_json(payload) + "\n"
    with pl.output_file(args.out) as fh:
        fh.write(text)
    print(
        f"accuracy {metrics.accuracy:.4f}, macro {metrics.macro_accuracy:.4f}, "
        f"covering radius {radius:.4f}; wrote {args.out}"
    )
    return 0


# a report's columns and the type of each (a float may be written as an int)
_REPORT_COLUMNS = {"method": str, "ratio": int, "seed": int, "accuracy": float,
                   "macro_accuracy": float, "covering_radius": float}


def _cmd_report(args) -> int:
    _check_outputs(args.metrics, [args.out])
    rows = []
    for path in args.metrics:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as err:
            raise FormatError(f"metrics file {path} is not valid JSON: {err}") from err
        if not isinstance(data, dict):
            raise FormatError(f"metrics file {path} must hold a JSON object")
        row = []
        for key, kind in _REPORT_COLUMNS.items():
            if key not in data:
                raise FormatError(f"metrics file {path} is missing key {key!r}")
            value = data[key]
            try:
                pl._check_types([value], kind, f"metrics file {path} key {key!r}")
            except InputError as err:
                raise FormatError(str(err)) from err
            row.append(pl.canonical_json(value) if isinstance(value, float) else value)
        rows.append(row)
    with pl.output_file(args.out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


_COMMANDS = {
    "toygen": _cmd_toygen,
    "expand": _cmd_expand,
    "traineval": _cmd_traineval,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except NumericDivergenceError as err:
        print(f"error: numeric divergence: {err}", file=sys.stderr)
        return 3
    except ParameterError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (ExpandForgeError, OSError) as err:  # an OSError's text names its file
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
