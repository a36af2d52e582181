"""End-to-end tests of the command-line interface and its exit codes."""

import errno
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expandforge.backends as bk
import expandforge.cli as cli
import expandforge.evaluation as ev
import expandforge.latentmath as lm
import expandforge.pipeline as pl
from expandforge.errors import ExpandForgeError, NumericDivergenceError, ParameterError


def _toygen(tmp_path, name="train.gifx", classes=4, per_class=3, size=16, seed=7):
    path = tmp_path / name
    code = cli.main([
        "toygen", "--classes", str(classes), "--per-class", str(per_class),
        "--size", str(size), "--seed", str(seed), "--out", str(path),
    ])
    assert code == 0
    return path


def _small_expand_args(src, out, method="cutout", ratio=2, **extra):
    args = [
        "expand", "--in", str(src), "--method", method, "--ratio", str(ratio),
        "--steps", "2", "--latent-dim", "8", "--latent-tokens", "2",
        "--embed-dim", "32", "--seed", "1", "--out", str(out),
    ]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def test_toygen_writes_expected_dataset(tmp_path):
    path = _toygen(tmp_path, classes=4, per_class=25, size=16, seed=7)
    data = pl.read_dataset(path)
    assert len(data) == 100
    assert data.image_shape == (16, 16, 1)
    assert data.class_count == 4


def test_expand_matches_count_contract(tmp_path):
    src = _toygen(tmp_path, per_class=25)
    out = tmp_path / "big.gifx"
    manifest_path = tmp_path / "big.json"
    code = cli.main([
        "expand", "--in", str(src), "--method", "gif_latent", "--ratio", "5",
        "--epsilon", "5.0", "--steps", "10", "--seed", "7",
        "--out", str(out), "--manifest", str(manifest_path),
    ])
    assert code == 0
    expanded = pl.read_dataset(out)
    assert len(expanded) == 600
    manifest = pl.read_manifest(manifest_path)
    assert len(manifest.records) == 500
    assert manifest.method == "gif_latent"
    manifest.verify_against(pl.read_dataset(src), expanded)


def test_expand_is_idempotent(tmp_path):
    src = _toygen(tmp_path)
    out = tmp_path / "twice.gifx"
    assert cli.main(_small_expand_args(src, out)) == 0
    first = out.read_bytes()
    first_manifest = (tmp_path / "twice.gifx.manifest.json").read_bytes()
    assert cli.main(_small_expand_args(src, out)) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "twice.gifx.manifest.json").read_bytes() == first_manifest


def test_expand_validates_the_manifest_once(tmp_path, monkeypatch):
    calls = []
    validate = pl.ExpansionManifest.validate

    def counted(manifest):
        calls.append(manifest)
        validate(manifest)

    monkeypatch.setattr(pl.ExpansionManifest, "validate", counted)
    src = _toygen(tmp_path)
    assert cli.main(_small_expand_args(src, tmp_path / "out.gifx")) == 0
    assert len(calls) == 1


def test_traineval_and_report_round_trip(tmp_path):
    train = _toygen(tmp_path, "train.gifx", per_class=5, seed=7)
    test = _toygen(tmp_path, "test.gifx", per_class=4, seed=99)
    rows = []
    for method, ratio in (("baseline", 0), ("cutout", 2)):
        out = tmp_path / f"{method}.metrics.json"
        code = cli.main([
            "traineval", "--train", str(train), "--test", str(test),
            "--epochs", "20", "--seed", "0", "--method", method,
            "--ratio", str(ratio), "--embed-dim", "32", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("accuracy", "macro_accuracy", "covering_radius",
                    "per_class_recall", "train_loss_curve"):
            assert key in payload
        assert payload["method"] == method and payload["ratio"] == ratio
        rows.append(out)
    csv_path = tmp_path / "cmp.csv"
    code = cli.main(["report", "--metrics", str(rows[0]), str(rows[1]),
                     "--out", str(csv_path)])
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "method,ratio,seed,accuracy,macro_accuracy,covering_radius"
    assert len(lines) == 3
    assert lines[1].startswith("baseline,0,0,")
    assert lines[2].startswith("cutout,2,0,")


def test_usage_errors_exit_one(tmp_path):
    src = _toygen(tmp_path)
    assert cli.main(["toygen", "--bogus", "1", "--out", "x.gifx"]) == 1
    assert cli.main(["expand", "--in", str(src), "--method", "warp",
                     "--out", "x.gifx"]) == 1
    assert cli.main(["toygen"]) == 1
    assert cli.main([]) == 1
    bad_ratio = _small_expand_args(src, tmp_path / "r0.gifx")
    bad_ratio[bad_ratio.index("--ratio") + 1] = "0"
    assert cli.main(bad_ratio) == 1
    # rejected by the config before any work, so no expanded file is left behind
    for method, flag, value in (
        ("gridmask", "grid_period", 0),
        ("gridmask", "grid_period", -3),
        ("cutout", "epsilon", "inf"),
        ("gif_latent", "epsilon", "inf"),
        ("gif_embed", "cutout_frac", 1.5),
    ):
        out = tmp_path / "bad.gifx"
        assert cli.main(_small_expand_args(src, out, method=method, **{flag: value})) == 1
        assert not out.exists()


def test_non_finite_tau_exits_one(tmp_path):
    src = _toygen(tmp_path)
    out = tmp_path / "hot.gifx"
    assert cli.main(_small_expand_args(src, out, tau="inf")) == 1
    assert not out.exists()


def test_expand_output_naming_an_input_or_output_exits_one(tmp_path):
    src = _toygen(tmp_path, "train.gifx")
    exemplars = _toygen(tmp_path, "ex.gifx", seed=8)
    other = tmp_path / "other.gifx"
    link = tmp_path / "link.gifx"
    link.symlink_to(src)
    for out, extra in (
        (other, dict(manifest=other)),
        (tmp_path / "m.gifx", dict(manifest=tmp_path / "m.gifx")),
        (src, {}),
        (link, {}),
        (other, dict(manifest=src)),
        (exemplars, dict(exemplars=exemplars)),
        (other, dict(exemplars=exemplars, manifest=exemplars)),
        (tmp_path / "sub" / ".." / "train.gifx", {}),
    ):
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert cli.main(_small_expand_args(src, out, **extra)) == 1
        after = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        assert after == before
    # the default manifest path counts as an output too
    named = tmp_path / "named.gifx"
    manifest_input = _toygen(tmp_path, "named.gifx.manifest.json")
    assert cli.main(_small_expand_args(manifest_input, named)) == 1
    assert not named.exists()


def test_traineval_output_naming_an_input_exits_one(tmp_path):
    train = _toygen(tmp_path, "train.gifx", per_class=3)
    test = _toygen(tmp_path, "test.gifx", per_class=2, seed=99)
    for out in (train, test):
        before = out.read_bytes()
        code = cli.main(["traineval", "--train", str(train), "--test", str(test),
                         "--epochs", "2", "--embed-dim", "32", "--out", str(out)])
        assert code == 1
        assert out.read_bytes() == before


def test_traineval_method_utf8_cannot_encode_exits_one(tmp_path, capsys):
    # an undecodable command-line byte reaches argv as a lone surrogate
    train = _toygen(tmp_path, "train.gifx", per_class=3)
    out = tmp_path / "m.json"
    out.write_text("earlier metrics\n")
    before = out.read_bytes()
    code = cli.main(["traineval", "--train", str(train), "--test", str(train),
                     "--epochs", "2", "--embed-dim", "32", "--method", "\udcff",
                     "--out", str(out)])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert out.read_bytes() == before


def test_report_text_utf8_cannot_encode_exits_two(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    # json.dumps escapes the lone surrogate as "\ud800", which json.load reads back
    metrics.write_text(json.dumps({"method": "\ud800", "ratio": 2, "seed": 0, "accuracy": 0.5,
                                   "macro_accuracy": 0.5, "covering_radius": 1.0}))
    out = tmp_path / "cmp.csv"
    out.write_text("earlier,report\n")
    before = out.read_bytes()
    assert cli.main(["report", "--metrics", str(metrics), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(metrics) in err and "Traceback" not in err
    assert out.read_bytes() == before


def test_report_output_naming_an_input_exits_one(tmp_path):
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps({"method": "cutout", "ratio": 2, "seed": 0, "accuracy": 0.5,
                                   "macro_accuracy": 0.5, "covering_radius": 1.0}))
    before = metrics.read_bytes()
    assert cli.main(["report", "--metrics", str(metrics), "--out", str(metrics)]) == 1
    assert metrics.read_bytes() == before


@pytest.mark.parametrize(
    "method", ["cutout", "gridmask", "randlite", "selective_randlite", "selective_cutout"]
)
def test_baselines_expand_a_set_too_small_for_the_codec(tmp_path, method):
    # 12 samples cannot carry the default 32-dimension codec, which only the
    # guided methods use
    src = _toygen(tmp_path, classes=4, per_class=3)
    out = tmp_path / "tiny.gifx"
    assert cli.main(["expand", "--in", str(src), "--method", method, "--out", str(out)]) == 0
    assert len(pl.read_dataset(out)) == 12 * (1 + 5)


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["expand", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--epsilon" in text and "gif_latent" in text


def test_data_errors_exit_two(tmp_path):
    missing = tmp_path / "missing.gifx"
    assert cli.main(_small_expand_args(missing, tmp_path / "o.gifx")) == 2
    garbage = tmp_path / "garbage.gifx"
    garbage.write_bytes(b"NOPE" + b"\x00" * 64)
    assert cli.main(_small_expand_args(garbage, tmp_path / "o.gifx")) == 2
    train = _toygen(tmp_path)
    broken_metrics = tmp_path / "broken.json"
    broken_metrics.write_text('{"method": "x"}')
    assert cli.main(["report", "--metrics", str(broken_metrics),
                     "--out", str(tmp_path / "r.csv")]) == 2
    assert cli.main(["traineval", "--train", str(train), "--test", str(garbage),
                     "--out", str(tmp_path / "m.json")]) == 2


def test_divergence_exits_three(tmp_path):
    src = _toygen(tmp_path)
    args = _small_expand_args(
        src, tmp_path / "div.gifx", method="gif_latent",
        lambda_con=0, lambda_ent=0, lambda_div=0,
    )
    args += ["--step-size", "1e309"]
    assert cli.main(args) == 3


def test_diverging_training_exits_three_and_writes_no_metrics(tmp_path, capsys):
    # a rate this large overflows the weights within a few epochs
    train = _toygen(tmp_path, classes=2, per_class=3, size=8)
    out = tmp_path / "m.json"
    code = cli.main(["traineval", "--train", str(train), "--test", str(train),
                     "--lr", "1e308", "--out", str(out)])
    assert code == 3
    assert "epoch" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_manifest_leaves_no_files(tmp_path):
    # a baseline never uses the step size, but the manifest records it, and
    # canonical JSON cannot hold inf
    src = _toygen(tmp_path)
    out = tmp_path / "inf.gifx"
    assert cli.main(_small_expand_args(src, out, step_size="inf")) == 2
    assert not out.exists()
    assert not (tmp_path / "inf.gifx.manifest.json").exists()


def test_non_finite_record_score_leaves_no_files(tmp_path, monkeypatch, capsys):
    # write_manifest checks the record columns before it opens a file
    monkeypatch.setattr(lm, "diversity_terms_rows", lambda flats: np.full(len(flats), np.nan))
    src = _toygen(tmp_path)
    out = tmp_path / "nan.gifx"
    assert cli.main(_small_expand_args(src, out)) == 2
    assert "record 0 scores_initial field 's_div' must be float, got nan" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "nan.gifx.manifest.json").exists()


def test_unwritable_dataset_leaves_no_manifest(tmp_path):
    # the manifest is written first; an --out that cannot be opened must not
    # leave it behind naming a file that was never written
    src = _toygen(tmp_path)
    out = tmp_path / "taken"
    out.mkdir()
    assert cli.main(_small_expand_args(src, out)) == 2
    assert not (tmp_path / "taken.manifest.json").exists()
    assert not any(out.iterdir())


def test_unwritable_dataset_leaves_a_device_manifest_in_place(tmp_path, monkeypatch):
    # the manifest written before a failed GIFX write is removed only if it
    # is a regular file
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    src = _toygen(tmp_path)
    args = _small_expand_args(src, tmp_path / "missing" / "o.gifx") + ["--manifest", os.devnull]
    assert cli.main(args) == 2
    assert removed == []


def test_traineval_on_mismatched_image_sizes_exits_two(tmp_path, capsys):
    train = _toygen(tmp_path, "train.gifx", size=16)
    test = _toygen(tmp_path, "test.gifx", size=8)
    out = tmp_path / "m.json"
    code = cli.main(["traineval", "--train", str(train), "--test", str(test),
                     "--epochs", "2", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _renamed(tmp_path, src, name="renamed.gifx"):
    """A copy of the dataset at src whose classes are named a, b, c, ..."""
    data = pl.read_dataset(src)
    names = [chr(ord("a") + c) for c in range(data.class_count)]
    path = tmp_path / name
    pl.write_dataset(bk.LabeledDataset(data.pixels, data.labels, names), path)
    return path


@pytest.mark.parametrize("test_set", ["eight_classes", "renamed_classes"])
def test_traineval_on_other_classes_exits_two_before_training(tmp_path, monkeypatch, capsys,
                                                              test_set):
    train = _toygen(tmp_path, "train.gifx", classes=4)
    if test_set == "eight_classes":
        test = _toygen(tmp_path, "test.gifx", classes=8)
    else:
        test = _renamed(tmp_path, train)
    monkeypatch.setattr(ev, "train_classifier", lambda *a: pytest.fail("trained"))
    out = tmp_path / "m.json"
    code = cli.main(["traineval", "--train", str(train), "--test", str(test),
                     "--epochs", "2", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(pl.read_dataset(train).class_names) in err
    assert str(pl.read_dataset(test).class_names) in err
    assert not out.exists()


def test_expand_with_exemplars_of_other_classes_exits_two_before_fitting(tmp_path, monkeypatch,
                                                                         capsys):
    src = _toygen(tmp_path)
    exemplars = _renamed(tmp_path, src)
    monkeypatch.setattr(bk, "fit_prototype_head", lambda *a, **kw: pytest.fail("fitted"))
    out = tmp_path / "ex.gifx"
    assert cli.main(_small_expand_args(src, out, exemplars=exemplars)) == 2
    err = capsys.readouterr().err
    assert "['a', 'b', 'c', 'd']" in err and str(pl.read_dataset(src).class_names) in err
    assert not out.exists()
    assert not (tmp_path / "ex.gifx.manifest.json").exists()


def test_every_expand_config_flag_reaches_the_manifest(tmp_path):
    src = _toygen(tmp_path, per_class=3)
    out = tmp_path / "cfg.gifx"
    assert cli.main([
        "expand", "--in", str(src), "--method", "gif_embed", "--ratio", "3",
        "--epsilon", "0.25", "--steps", "1", "--step-size", "0.2", "--lambda-con", "0.5",
        "--lambda-ent", "0.25", "--lambda-div", "2", "--noise-mode", "token", "--retries", "1",
        "--budget", "7", "--cutout-frac", "0.25", "--grid-period", "4", "--grid-keep", "0.75",
        "--latent-dim", "8", "--latent-tokens", "2", "--embed-dim", "16", "--seed", "1",
        "--out", str(out),
    ]) == 0
    assert pl.read_manifest(f"{out}.manifest.json").config == {
        "ratio_k": 3, "epsilon": 0.25, "steps": 1, "step_size": 0.2,
        "weights": [0.5, 0.25, 2.0], "noise_mode": "token", "retries": 1,
        "candidate_budget": 7, "cutout_frac": 0.25, "grid_period": 4, "grid_keep": 0.75,
    }


def _cli_with_file_limit(limit: int, argv):
    """Run the CLI in a child process whose files cannot grow past limit bytes.
    CPython ignores SIGXFSZ, so a write past the limit raises EFBIG. The child
    writes no bytecode (-B): importlib would rename a .pyc cut short by the
    limit into place, and every later import of that module would fail."""
    resource = pytest.importorskip("resource")
    return subprocess.run(
        [sys.executable, "-B", "-m", "expandforge.cli", *map(str, argv)],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
        capture_output=True, text=True,
    )


def _file_too_large(path) -> str:
    return f"error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}: {str(path)!r}\n"


@pytest.mark.parametrize("cut_short", ["gifx", "manifest"])
def test_expand_write_cut_short_leaves_neither_file(tmp_path, cut_short):
    # the manifest is written first, so a limit between the two files' sizes
    # cuts the GIFX short and a limit below the manifest's cuts the manifest
    src = _toygen(tmp_path)
    full = tmp_path / "full.gifx"
    assert cli.main(_small_expand_args(src, full, ratio=5)) == 0
    manifest_size = (tmp_path / "full.gifx.manifest.json").stat().st_size
    gifx_size = full.stat().st_size
    assert manifest_size < gifx_size
    out = tmp_path / "out.gifx"
    manifest = tmp_path / "out.gifx.manifest.json"
    limit = (manifest_size + gifx_size) // 2 if cut_short == "gifx" else manifest_size // 2
    proc = _cli_with_file_limit(limit, _small_expand_args(src, out, ratio=5))
    assert proc.returncode == 2
    assert not out.exists()
    assert not manifest.exists()
    assert proc.stderr == _file_too_large(out if cut_short == "gifx" else manifest)


def test_traineval_write_cut_short_leaves_no_metrics(tmp_path):
    data = _toygen(tmp_path)
    out = tmp_path / "m.json"
    out.write_text("earlier metrics\n")
    # the metrics file holds a 100-point loss curve, well over 512 bytes
    proc = _cli_with_file_limit(512, ["traineval", "--train", data, "--test", data,
                                      "--embed-dim", "16", "--out", out])
    assert proc.returncode == 2
    assert not out.exists()
    assert proc.stderr == _file_too_large(out)


def test_traineval_write_cut_short_leaves_a_symlink_in_place(tmp_path):
    # only a regular file is removed: os.remove on a link would delete the
    # link and leave the file it names cut short behind it
    data = _toygen(tmp_path)
    target = tmp_path / "real.json"
    target.write_text("earlier metrics\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    proc = _cli_with_file_limit(512, ["traineval", "--train", data, "--test", data,
                                      "--embed-dim", "16", "--out", link])
    assert proc.returncode == 2
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.exists()
    assert proc.stderr == _file_too_large(link)


@pytest.mark.parametrize("error", ExpandForgeError.__subclasses__(), ids=lambda e: e.__name__)
def test_every_package_error_has_its_exit_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "report", fail)
    code = cli.main(["report", "--metrics", "m.json", "--out", "r.csv"])
    assert code == {NumericDivergenceError: 3, ParameterError: 1}.get(error, 2)
    assert "boom" in capsys.readouterr().err


def test_seed_env_var_fills_in(tmp_path, monkeypatch, capsys):
    explicit = _toygen(tmp_path, "a.gifx", seed=42)
    monkeypatch.setenv(cli.SEED_ENV, "42")
    implicit = tmp_path / "b.gifx"
    args = ["toygen", "--classes", "4", "--per-class", "3", "--size", "16",
            "--out", str(implicit)]
    assert cli.main(args) == 0
    assert implicit.read_bytes() == explicit.read_bytes()
    # an explicit flag wins over the environment
    monkeypatch.setenv(cli.SEED_ENV, "13")
    flagged = tmp_path / "c.gifx"
    assert cli.main(["toygen", "--classes", "4", "--per-class", "3",
                     "--size", "16", "--seed", "42", "--out", str(flagged)]) == 0
    assert flagged.read_bytes() == explicit.read_bytes()
    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    assert cli.main(args) == 1
    capsys.readouterr()


def test_module_invocation(tmp_path):
    out = tmp_path / "mod.gifx"
    proc = subprocess.run(
        [sys.executable, "-m", "expandforge.cli", "toygen", "--classes", "4",
         "--per-class", "2", "--size", "12", "--seed", "3", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert pl.read_dataset(out).class_count == 4


def test_console_script_resolves_to_main():
    # the tests run the package from its source tree, never installed, so
    # the entry point pyproject.toml declares is checked here
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["expandforge"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr)(["--help"]) == 0
