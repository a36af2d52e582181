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
import json
import os
import sys

from . import backends as bk
from . import evaluation as ev
from . import guidance as gd
from . import latentmath as lm
from . import pipeline as pl
from .errors import ExpandForgeError, FormatError, NumericDivergenceError, ParameterError

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


def build_parser() -> argparse.ArgumentParser:
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
    expand.add_argument("--ratio", type=int, default=cfg.ratio_k,
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
    expand.add_argument("--budget", type=int, default=cfg.candidate_budget,
                        help="candidate budget for selective methods (default 4*K)")
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
    traineval.add_argument("--hidden", type=int, default=32,
                           help="hidden units (default 32)")
    traineval.add_argument("--epochs", type=int, default=100,
                           help="training epochs (default 100)")
    traineval.add_argument("--lr", type=float, default=0.05,
                           help="learning rate (default 0.05)")
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


def _cmd_toygen(args) -> int:
    seed = _resolve_seed(args.seed)
    data = bk.gen_toy_dataset(args.classes, args.per_class, args.size, seed)
    pl.write_dataset(data, args.out)
    print(f"wrote {len(data)} samples to {args.out}")
    return 0


def _cmd_expand(args) -> int:
    seed = _resolve_seed(args.seed)
    data = pl.read_dataset(args.input)
    exemplars = pl.read_dataset(args.exemplars) if args.exemplars else data
    if args.latent_tokens < 1 or args.latent_dim % args.latent_tokens != 0:
        raise ParameterError(
            f"--latent-tokens {args.latent_tokens} must divide --latent-dim {args.latent_dim}"
        )
    codec = None
    if args.method in pl.GUIDED_METHODS:
        codec = bk.fit_linear_codec(
            data,
            latent_dim=args.latent_dim,
            latent_shape=(args.latent_tokens, args.latent_dim // args.latent_tokens),
        )
    embedder = bk.make_embedder(data.image_shape, args.embed_dim, args.embed_seed)
    head = bk.fit_prototype_head(exemplars, embedder, tau=args.tau)
    bundle = pl.BackendBundle(codec=codec, embedder=embedder, head=head)
    config = pl.ExpansionConfig(
        ratio_k=args.ratio,
        epsilon=args.epsilon,
        steps=args.steps,
        step_size=args.step_size,
        weights=(args.lambda_con, args.lambda_ent, args.lambda_div),
        noise_mode=args.noise_mode,
        retries=args.retries,
        candidate_budget=args.budget,
        cutout_frac=args.cutout_frac,
        grid_period=args.grid_period,
        grid_keep=args.grid_keep,
    )
    expanded, manifest = pl.expand_dataset(data, args.method, config, bundle, seed)
    manifest_path = args.manifest or f"{args.out}.manifest.json"
    # the manifest first: write_manifest validates and renders it before it
    # opens the file, so a manifest that cannot be written leaves neither file
    pl.write_manifest(manifest, manifest_path)
    try:
        pl.write_dataset(expanded, args.out)
    except OSError:
        # a manifest whose expanded_digest names no file must not stay behind
        os.remove(manifest_path)
        raise
    print(
        f"expanded {len(data)} -> {len(expanded)} samples with {args.method}; "
        f"wrote {args.out} and {manifest_path}"
    )
    return 0


def _cmd_traineval(args) -> int:
    seed = _resolve_seed(args.seed)
    train = pl.read_dataset(args.train)
    test = pl.read_dataset(args.test)
    config = ev.ClassifierConfig(
        hidden=args.hidden, epochs=args.epochs, lr=args.lr, seed=seed
    )
    model = ev.train_classifier(train, config)
    metrics = ev.evaluate(model, test)
    embedder = bk.make_embedder(train.image_shape, args.embed_dim, args.embed_seed)
    radius = ev.covering_radius(embedder.embed_dataset(train), embedder.embed_dataset(test))
    payload = {
        "method": args.method,
        "ratio": args.ratio,
        "seed": seed,
        "covering_radius": radius,
        **metrics.as_dict(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(pl.canonical_json(payload) + "\n")
    print(
        f"accuracy {metrics.accuracy:.4f}, macro {metrics.macro_accuracy:.4f}, "
        f"covering radius {radius:.4f}; wrote {args.out}"
    )
    return 0


_REPORT_COLUMNS = ("method", "ratio", "seed", "accuracy", "macro_accuracy", "covering_radius")


def _cmd_report(args) -> int:
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
        for key in _REPORT_COLUMNS:
            if key not in data:
                raise FormatError(f"metrics file {path} is missing key {key!r}")
            value = data[key]
            if isinstance(value, float):
                value = pl.canonical_json(value)
            row.append(value)
        rows.append(row)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
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
    except ExpandForgeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        name = getattr(err, "filename", None)
        suffix = f" ({name})" if name else ""
        print(f"error: {err}{suffix}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
