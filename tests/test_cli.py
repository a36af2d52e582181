"""End-to-end tests of the command-line interface and its exit codes."""

import json
import subprocess
import sys

import pytest

import expandforge.cli as cli
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


def test_unwritable_manifest_leaves_no_files(tmp_path):
    # a baseline never uses the step size, but the manifest records it, and
    # canonical JSON cannot hold inf
    src = _toygen(tmp_path)
    out = tmp_path / "inf.gifx"
    assert cli.main(_small_expand_args(src, out, step_size="inf")) == 2
    assert not out.exists()
    assert not (tmp_path / "inf.gifx.manifest.json").exists()


def test_unwritable_dataset_leaves_no_manifest(tmp_path):
    # the manifest is written first; an --out that cannot be opened must not
    # leave it behind naming a file that was never written
    src = _toygen(tmp_path)
    out = tmp_path / "taken"
    out.mkdir()
    assert cli.main(_small_expand_args(src, out)) == 2
    assert not (tmp_path / "taken.manifest.json").exists()
    assert not any(out.iterdir())


def test_traineval_on_mismatched_image_sizes_exits_two(tmp_path, capsys):
    train = _toygen(tmp_path, "train.gifx", size=16)
    test = _toygen(tmp_path, "test.gifx", size=8)
    out = tmp_path / "m.json"
    code = cli.main(["traineval", "--train", str(train), "--test", str(test),
                     "--epochs", "2", "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
