import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dticalib.cli import main
from dticalib import bootstrap as bs
from dticalib import dataio, mlp, pipeline


def write_cfg(path: Path, body: str):
    path.write_text(body)
    return str(path)


def dir_hashes(out: Path):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


BASE = """
out_dir = run
seed = 11
phantom.generator = prolate
phantom.fa_target = 0.8
phantom.md = 0.9e-3
phantom.n_voxels = 24
phantom.orientation = uniform
phantom.snr_db = {snr}
scheme.n_directions = 30
fit.estimator = cwlls
bootstrap.iterations = 120
metrics.bins = 6
"""


class TestExitCodes:
    def test_unknown_subcommand_usage_on_stderr(self, capsys):
        assert main(["frobnicate", "--config", "x.cfg"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="30"))
        assert main(["fit", "--config", cfg]) == 2
        assert "data error" in capsys.readouterr().err


    def test_nan_signal_is_data_error_naming_voxel(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "run/dataset.bin"
        header, signals, truth, _ = dataio.read_dataset(path)
        signals[7, 5] = np.nan
        dataio.write_dataset(path, signals, "scheme", truth_elements=truth, seed=header["seed"])
        capsys.readouterr()
        for cmd in ("fit", "bootstrap"):
            assert main([cmd, "--config", cfg]) == 2
            err = capsys.readouterr().err
            assert "data error" in err and "voxel 7, measurement 5" in err

    @pytest.mark.parametrize("key, value", [
        ("phantom.generator", "prolat"),
        ("phantom.orientation", "unifrom"),
        ("phantom.generator", "fixed"),  # no config key sets the fixed elements
        ("phantom.n_voxels", "0"),
        ("phantom.snr_db", "-inf"),  # a dataset the fit stage refuses
        ("phantom.eig_min", "-0.001"),  # random_spd truth with negative eigenvalues
        ("phantom.eig_min", "0.005"),  # above eig_max
        ("phantom.eig_max", "inf"),
        ("phantom.shift", "-1"),  # two_population truth with negative eigenvalues
        ("phantom.md", "inf"),
    ])
    def test_bad_phantom_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28") + f"{key} = {value}\n")
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and value in err
        assert not (tmp_path / "run").exists()

    # BASE ends on line 13, so appended lines start at line 14
    @pytest.mark.parametrize("lines, key, where", [
        ("bootstrap.iteration = 3", "bootstrap.iteration", "line 14"),  # unknown key
        ("bootstrap.iterations = 10.7", "bootstrap.iterations", "line 14"),
        ("bootstrap.iterations = true", "bootstrap.iterations", "line 14"),
        ("phantom.fa_target = abc", "phantom.fa_target", "line 14"),
        ("train.hidden_widths = 64, x", "train.hidden_widths", "line 14"),
        ("seed = -1", "seed", "line 14"),
        ("calibrate.split = 1.5", "calibrate.split", "line 14"),
        ("phantom.generator = oblate\nphantom.fa_target = 0.9", "phantom.fa_target", "line 15"),
        # values the bootstrap, predict and metric stages would reject after writing
        ("bootstrap.iterations = 0", "bootstrap.iterations", "line 14"),
        ("predict.samples = 1", "predict.samples", "line 14"),
        ("metrics.bins = 0", "metrics.bins", "line 14"),
        ("metrics.grid_size = 1", "metrics.grid_size", "line 14"),
        ("metrics.mpiw_cap.fa = 0", "metrics.mpiw_cap.fa", "line 14"),
        ("metrics.mpiw_cap.md = 0", "metrics.mpiw_cap.md", "line 14"),
        ("metrics.mpiw_cap.theta = 0", "metrics.mpiw_cap.theta", "line 14"),
        # schemes whose single-shell design is short of 7 rows, singular or negative
        ("scheme.n_directions = 3", "scheme.n_directions", "line 14"),
        ("scheme.n_directions = 0", "scheme.n_directions", "line 14"),
        ("scheme.n_b0 = -1", "scheme.n_b0", "line 14"),
        ("scheme.n_b0 = 0", "scheme.n_b0", "line 14"),
        ("scheme.n_b0 = 1", "scheme.n_b0", "line 14"),  # a lone b=0 row has leverage 1
        ("scheme.bvalue = -1000", "scheme.bvalue", "line 14"),
        ("scheme.bvalue = 0", "scheme.bvalue", "line 14"),
    ])
    def test_misconfiguration_names_key_and_line(self, tmp_path, capsys, lines, key, where):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28") + lines + "\n")
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: {key}")
        assert not (tmp_path / "run").exists()

    @staticmethod
    def bootstrapped_run(tmp_path, body):
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg, "--iterations", "20"]) == 0
        return cfg, dir_hashes(tmp_path / "run")

    def test_split_smaller_than_bins_is_config_error(self, tmp_path, capsys):
        body = BASE.format(snr="28").replace("n_voxels = 24", "n_voxels = 20")
        cfg, before = self.bootstrapped_run(tmp_path, body + "calibrate.split = 0.05\n")
        capsys.readouterr()
        assert main(["calibrate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 13: metrics.bins = 6")
        assert "calibration split holds 1, held-out split holds 19 of 20 rows" in err
        assert "calibrate.split = 0.05 (line 14)" in err
        assert dir_hashes(tmp_path / "run") == before

    def test_one_bin_calibration_is_config_error(self, tmp_path, capsys):
        cfg, before = self.bootstrapped_run(tmp_path, BASE.format(snr="28") + "metrics.bins = 1\n")
        capsys.readouterr()
        assert main(["calibrate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line 14: metrics.bins = 1 must be at least 2")
        assert "calibration split holds 12, held-out split holds 12 of 24 rows" in err
        assert "calibrate.split = 0.5 (default)" in err
        assert dir_hashes(tmp_path / "run") == before

    def test_table_smaller_than_bins_is_config_error(self, tmp_path, capsys):
        body = BASE.format(snr="28").replace("n_voxels = 24", "n_voxels = 5")
        cfg, before = self.bootstrapped_run(tmp_path, body.replace("metrics.bins = 6\n", ""))
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: default: metrics.bins = 15")
        assert err.rstrip().endswith(f"{tmp_path / 'run/predictions_wbs.bin'} holds 5")
        assert dir_hashes(tmp_path / "run") == before

    @pytest.mark.parametrize("first_line", [
        b"no header here\n", b"\x89PNG\r\n\x1a\n\0\xff", b"[1, 2]\n",
    ], ids=["junk", "binary", "list"])
    @pytest.mark.parametrize("command, key", [
        ("fit", "dataset.path"), ("evaluate", "evaluate.predictions"),
    ])
    def test_foreign_file_is_data_error_naming_path(
        self, tmp_path, capsys, first_line, command, key
    ):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28") + f"{key} = foreign.bin\n")
        if command == "evaluate":
            assert main(["simulate", "--config", cfg]) == 0
        (tmp_path / "foreign.bin").write_bytes(first_line + b"\0" * 16)
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'foreign.bin'}: ")

    def test_header_lacking_fields_is_data_error_naming_path_and_field(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "evaluate.predictions = p.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        (tmp_path / "p.bin").write_bytes(b'{"kind": "predictions"}\n')
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'p.bin'}: ") and "n_voxels" in err

    def test_model_that_is_not_a_checkpoint_is_data_error_naming_path(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "predict.model = run/dataset.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["predict", "--config", cfg, "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'run/dataset.bin'}: not a mlp_checkpoint")
        assert not (tmp_path / "run/predictions_dl.bin").exists()

    @pytest.mark.parametrize("command", ["train", "calibrate", "evaluate", "curves"])
    def test_dataset_without_truth_is_data_error_naming_path(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg, "--iterations", "20"]) == 0
        path = tmp_path / "run/dataset.bin"
        header, signals, _, _ = dataio.read_dataset(path)
        dataio.write_dataset(path, signals, "scheme", seed=header["seed"])
        before = dir_hashes(tmp_path / "run")
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: dataset holds no ground-truth tensors")
        assert dir_hashes(tmp_path / "run") == before

    @pytest.mark.parametrize("line", [
        "train.val_fraction = 1.5",  # no training rows
        "train.epochs = 0",
        "train.learning_rate = -1",
        "train.batch_size = 0",
        "train.eval_every = 0",
        "train.hidden_widths = 0",
        "train.dropout_rate = 1.5",
        "train.penalty = 0",
    ])
    def test_bad_train_value_is_config_error(self, tmp_path, capsys, line):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28") + line + "\n")
        assert main(["simulate", "--config", cfg]) == 0
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 1
        key, value = line.split(" = ")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: line 14: {key} must") and value in err
        assert not (tmp_path / "run/model.bin").exists()

    def test_bad_override_names_key(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("config error: override: seed = -1")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["evaluate", "curves"])
    def test_misspelled_uncertainty_is_config_error(self, tmp_path, capsys, command):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg, "--iterations", "20"]) == 0
        before = dir_hashes(tmp_path / "run")
        (tmp_path / "e.cfg").write_text(
            (tmp_path / "e.cfg").read_text() + "evaluate.uncertainty = aleatory\n"
        )
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "evaluate.uncertainty" in err and "aleatory" in err
        assert dir_hashes(tmp_path / "run") == before


class TestNoiselessPipeline:
    def test_fit_recovers_truth(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="inf"))
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["fit", "--config", cfg]) == 0
        # default evaluate target is the bootstrap file; point it at the fits
        cfg2 = write_cfg(
            tmp_path / "e2.cfg",
            BASE.format(snr="inf") + "evaluate.predictions = run/fits.bin\n",
        )
        assert main(["evaluate", "--config", cfg2]) == 0
        metrics = json.loads((tmp_path / "run/metrics.json").read_text())
        assert metrics["fa"]["median_abs_error"] < 1e-8
        assert metrics["md"]["median_abs_error"] < 1e-11
        assert metrics["fa"]["ence"] is None  # no uncertainties in a fits file


class TestCalibrateFlow:
    def make_miscalibrated_run(self, tmp_path):
        """Dataset plus a predictions file with sigma_reported = 2 sigma_true."""
        cfg_path = write_cfg(tmp_path / "e.cfg", BASE.format(snr="inf").replace(
            "phantom.n_voxels = 24", "phantom.n_voxels = 240"))
        assert main(["simulate", "--config", cfg_path]) == 0
        out = tmp_path / "run"
        _, _, truth, _ = dataio.read_dataset(out / "dataset.bin")
        fa, md, v1 = pipeline.truth_scalars(truth)
        rng = np.random.default_rng(5)
        n = len(truth)
        sig_true = {"fa": rng.uniform(0.01, 0.05, n), "md": rng.uniform(2e-5, 8e-5, n)}
        table = np.column_stack([
            fa + rng.normal(0, sig_true["fa"]),
            md + rng.normal(0, sig_true["md"]),
            v1,
            np.full(n, 10.0),           # theta95 proxy column
            2.0 * sig_true["fa"],       # reported sigma: twice the truth
            2.0 * sig_true["md"],
            np.full(n, np.nan),
        ])
        dataio.write_predictions(out / "predictions_wbs.bin", table, "wbs")
        return cfg_path, out

    def test_recalibration_reduces_holdout_ence(self, tmp_path):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        assert main(["calibrate", "--config", cfg_path]) == 0
        cfg2 = write_cfg(
            tmp_path / "e2.cfg",
            BASE.format(snr="inf")
            + "evaluate.recalibrated = run/predictions_recalibrated.bin\n",
        )
        assert main(["evaluate", "--config", cfg2]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        for p in ("fa", "md"):
            assert metrics["after"][p]["ence"] <= metrics["before"][p]["ence"]

    def test_recalibration_changes_only_sigma_columns(self, tmp_path):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        assert main(["calibrate", "--config", cfg_path]) == 0
        _, table = dataio.read_predictions(out / "predictions_wbs.bin")
        header, recal = dataio.read_predictions(out / "predictions_recalibrated.bin")
        held = table[header["meta"]["holdout"]]
        sigma_cols = [5, 6, 7]  # theta95, sigma_fa, sigma_md
        kept = [c for c in range(table.shape[1]) if c not in sigma_cols]
        assert np.array_equal(recal[:, kept], held[:, kept], equal_nan=True)
        assert not np.array_equal(recal[:, sigma_cols], held[:, sigma_cols])

    def test_fractional_split(self, tmp_path):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        (tmp_path / "e.cfg").write_text(
            (tmp_path / "e.cfg").read_text() + "calibrate.split = 0.75\n"
        )
        assert main(["calibrate", "--config", cfg_path]) == 0
        header, table = dataio.read_predictions(out / "predictions_recalibrated.bin")
        assert len(table) == 60  # 240 voxels, a quarter held out
        assert len(header["meta"]["holdout"]) == 60

    def test_aleatoric_uncertainty_is_config_error(self, tmp_path, capsys):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        (tmp_path / "e.cfg").write_text(
            (tmp_path / "e.cfg").read_text() + "evaluate.uncertainty = aleatoric\n"
        )
        capsys.readouterr()
        assert main(["calibrate", "--config", cfg_path]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "evaluate.uncertainty" in err
        assert not (out / "predictions_recalibrated.bin").exists()

    @pytest.mark.parametrize("edit", [
        lambda h: h.pop("meta"),
        lambda h: h["meta"].pop("holdout"),
        lambda h: h["meta"]["holdout"].pop(),  # one index short of the table
        lambda h: h["meta"]["holdout"].__setitem__(0, 240),  # past the predictions table
        lambda h: h["meta"]["holdout"].__setitem__(0, -1),
    ], ids=["no-meta", "no-holdout", "short", "past-end", "negative"])
    def test_bad_holdout_is_data_error_naming_path(self, tmp_path, capsys, edit):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        assert main(["calibrate", "--config", cfg_path]) == 0
        path = out / "predictions_recalibrated.bin"
        head, rest = path.read_bytes().split(b"\n", 1)
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + rest)
        cfg2 = write_cfg(
            tmp_path / "e2.cfg",
            BASE.format(snr="inf") + "evaluate.recalibrated = run/predictions_recalibrated.bin\n",
        )
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg2]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {path}: meta.holdout ")
        assert not (out / "metrics.json").exists()

    def test_calibration_maps_written(self, tmp_path):
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        assert main(["calibrate", "--config", cfg_path]) == 0
        maps = json.loads((out / "calibration_maps.json").read_text())
        for p in ("fa", "md", "theta"):
            assert np.all(np.diff(maps[p]["values"]) >= 0)


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "fit", "bootstrap", "evaluate", "curves"):
            assert main([cmd, "--config", cfg]) == 0
        first = dir_hashes(tmp_path / "run")
        shutil.rmtree(tmp_path / "run")
        for cmd in ("simulate", "fit", "bootstrap", "evaluate", "curves"):
            assert main([cmd, "--config", cfg]) == 0
        assert dir_hashes(tmp_path / "run") == first

    def test_chunk_size_and_voxel_order_do_not_change_results(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg]) == 0
        path = tmp_path / "run/predictions_wbs.bin"
        default = dataio.read_predictions(path)[1]
        iterations, n = 120, 24
        for rows in (1, iterations * n):  # one voxel per chunk, all voxels in one
            monkeypatch.setattr(bs, "CHUNK_ROWS", rows)
            assert main(["bootstrap", "--config", cfg]) == 0
            assert np.array_equal(dataio.read_predictions(path)[1], default, equal_nan=True)

        _, signals, _, scheme = dataio.read_dataset(tmp_path / "run/dataset.bin")
        seeds = np.array(pipeline._voxel_seeds(11, n))
        perm = np.random.default_rng(3).permutation(n)
        permuted = bs.wild_bootstrap_table(signals[perm], scheme, iterations, seeds[perm])
        assert np.array_equal(permuted, default[perm], equal_nan=True)

    def test_manifest_lists_every_output(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        assert main(["simulate", "--config", cfg]) == 0
        assert main(["fit", "--config", cfg]) == 0
        out = tmp_path / "run"
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p for p in dir_hashes(out) if p != "manifest.json"}
        assert set(manifest["outputs"]) == files
        for rel, digest in manifest["outputs"].items():
            assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
        assert manifest["seed"] == 11
        assert "dticalib" in manifest["versions"]

    def test_manifest_hashes_config_text_and_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        text = BASE.format(snr="28")

        def config_sha256():
            return json.loads((tmp_path / "run/manifest.json").read_text())["config_sha256"]

        assert main(["simulate", "--config", cfg]) == 0
        assert config_sha256() == hashlib.sha256(text.encode()).hexdigest()
        assert main(["simulate", "--config", cfg, "--seed", "5", "--snr-db", "30"]) == 0
        text += "\n# override\nseed = 5\n\n# override\nphantom.snr_db = 30.0\n"
        assert config_sha256() == hashlib.sha256(text.encode()).hexdigest()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        assert main(["simulate", "--config", cfg]) == 0
        a = dataio.read_dataset(tmp_path / "run/dataset.bin")[1]
        assert main(["simulate", "--config", cfg, "--seed", "99"]) == 0
        b = dataio.read_dataset(tmp_path / "run/dataset.bin")[1]
        assert not np.array_equal(a, b)


class TestSimulatePinned:
    # sha256 of dataset.bin as the per-voxel phantom wrote it (numpy 2.4, x86-64)
    PINNED = {
        ("prolate", "uniform"): "104f565156f000ef7483d3ab51c3c4331b9e99e091b5960f7a6ced417ae5e113",
        ("prolate", "fixed"): "db3bf38672eded1b3af51ac3c3ead3d3352355b92dcbc3c6c15656129770dbd2",
        ("oblate", "uniform"): "a862ff1710def9190ba067f542a225c8a34493c1197e6562a6669a6ba25926a0",
        ("oblate", "fixed"): "0a1fcf172d824f5c51823f6eb604429e3461a36ebcc1f994f2f5080a92fdfaf0",
        ("random_spd", "uniform"): "acc414d97a812d13d2a6863645adf707e8dcd4fc9727d089705518250999da3f",
        ("random_spd", "fixed"): "8d806dbe6a171e3c83be7f78c4fa7d1375dbe756ed8cd697b4150043b13ac5b1",
        ("two_population", "uniform"): "47193dbc862aa76de34d2e9491074863fa2d21be6e2984c69deb31d01675d739",
        ("two_population", "fixed"): "a1919d25acad0b6564abfd5af467d315333e694ac00f41fb49e34401d53ec759",
    }

    @pytest.mark.parametrize("generator, orientation", sorted(PINNED))
    def test_dataset_matches_pinned_digest(self, tmp_path, generator, orientation):
        body = (
            f"out_dir = run\nseed = 11\nphantom.generator = {generator}\n"
            f"phantom.n_voxels = 40\nphantom.orientation = {orientation}\n"
            "phantom.snr_db = 28\nscheme.n_directions = 30\n"
        )
        if generator == "oblate":
            body += "phantom.fa_target = 0.5\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        digest = hashlib.sha256((tmp_path / "run/dataset.bin").read_bytes()).hexdigest()
        assert digest == self.PINNED[generator, orientation]


class TestDlFlow:
    def test_train_predict_evaluate_aleatoric(self, tmp_path):
        body = BASE.format(snr="28") + (
            "train.epochs = 10\ntrain.dropout_rate = 0.3\npredict.samples = 30\n"
            "evaluate.predictions = run/predictions_dl.bin\n"
            "evaluate.uncertainty = aleatoric\n"
        )
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "train", "predict", "evaluate"):
            assert main([cmd, "--config", cfg]) == 0
        _, table = dataio.read_predictions(tmp_path / "run/predictions_dl.bin")
        assert np.all(np.isfinite(table[:, 8]))  # aleatoric u column
        metrics = json.loads((tmp_path / "run/metrics.json").read_text())
        for p in ("fa", "md", "theta"):
            assert metrics[p]["ence"] is not None
            assert 0.0 <= metrics[p]["aucc"] <= 1.0


class TestDlReproducibility:
    BODY = BASE.format(snr="28") + "train.epochs = 3\ntrain.dropout_rate = 0.3\npredict.samples = 30\n"
    N, SAMPLES = 24, 30

    def train_and_predict(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", self.BODY)
        for cmd in ("simulate", "train", "predict"):
            assert main([cmd, "--config", cfg]) == 0
        return cfg

    def test_rerun_is_byte_identical(self, tmp_path):
        self.train_and_predict(tmp_path)
        first = dir_hashes(tmp_path / "run")
        shutil.rmtree(tmp_path / "run")
        self.train_and_predict(tmp_path)
        assert dir_hashes(tmp_path / "run") == first

    def test_chunk_size_and_voxel_order_change_results_only_by_rounding(
        self, tmp_path, monkeypatch
    ):
        cfg = self.train_and_predict(tmp_path)
        path = tmp_path / "run/predictions_dl.bin"
        default = dataio.read_predictions(path)[1]
        for rows in (1, self.SAMPLES * self.N):  # one voxel per chunk, all voxels in one
            monkeypatch.setattr(bs, "CHUNK_ROWS", rows)
            assert main(["predict", "--config", cfg]) == 0
            table = dataio.read_predictions(path)[1]
            assert np.all(np.abs(table - default) <= 1e-12 * np.abs(default))

        _, signals, _, scheme = dataio.read_dataset(tmp_path / "run/dataset.bin")
        model, _ = mlp.load_checkpoint(tmp_path / "run/model.bin")
        inputs = mlp.normalize_signals(signals, scheme)
        seeds = np.array(pipeline._voxel_seeds(11, self.N))
        perm = np.random.default_rng(3).permutation(self.N)
        permuted = bs.summarize_uncertainty(
            mlp.predict_mc_dropout(model, inputs[perm], self.SAMPLES, seeds=seeds[perm])
        )
        expected = default[perm, 5:8]
        assert np.all(np.abs(permuted - expected) <= 1e-12 * np.abs(expected))

    def test_one_grouped_call_per_chunk(self, tmp_path, monkeypatch):
        cfg = self.train_and_predict(tmp_path)
        calls = {"predict_mc_dropout": [], "summarize_uncertainty": []}

        def spy(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                calls[name].append(len(out))
                return out

            monkeypatch.setattr(module, name, wrapper)

        spy(mlp, "predict_mc_dropout")
        spy(bs, "summarize_uncertainty")
        monkeypatch.setattr(bs, "CHUNK_ROWS", 10 * self.SAMPLES)  # chunks of 10, 10, 4 voxels
        assert main(["predict", "--config", cfg]) == 0
        assert calls == {"predict_mc_dropout": [10, 10, 4], "summarize_uncertainty": [10, 10, 4]}


class TestCurves:
    def test_csv_layout(self, tmp_path):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap", "curves"):
            assert main([cmd, "--config", cfg]) == 0
        for p in ("fa", "md", "theta"):
            lines = (tmp_path / f"run/curves_{p}.csv").read_text().splitlines()
            assert lines[0] == "beta,mpiw,mpiw_norm,picp"
            first = [float(tok) for tok in lines[1].split(",")]
            assert first[0] == 0.0 and first[1] == 0.0
            last = [float(tok) for tok in lines[-1].split(",")]
            assert last[2] == 1.0
