import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dticalib.cli import main
from dticalib import bootstrap as bs
from dticalib import dataio, mlp, pipeline, simulation
from dticalib.rng import CALIBRATE_SPLIT, run_stream
from dticalib.simulation import PhantomSpec, make_scheme
from dticalib.tensor import eigh3_batch, principal_scalars
from test_simulation import PINNED_DISPATCH, reference_phantom


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

    @pytest.mark.parametrize("command", [
        "simulate", "fit", "bootstrap", "train", "predict", "calibrate", "evaluate", "curves",
    ])
    def test_missing_input_leaves_no_out_dir(self, tmp_path, capsys, command):
        # simulate reads the scheme files; every other stage reads run/dataset.bin first
        body = BASE.format(snr="28")
        if command == "simulate":
            body += "scheme.bvec = missing.bvec\nscheme.bval = missing.bval\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main([command, "--config", cfg]) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, target, error, kind", [
        ("train", "train", mlp.DivergenceError("divergence at epoch 1"), "numeric"),
        ("predict", "predict_mc_dropout", ValueError("dropout samples are not finite"), "data"),
    ])
    def test_stage_failing_in_its_work_leaves_no_out_dir(
        self, tmp_path, capsys, monkeypatch, command, target, error, kind
    ):
        body = BASE.format(snr="28") + "dataset.path = run/dataset.bin\npredict.model = m.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        spec = mlp.MlpSpec(input_dim=32, hidden_widths=(4,), uncertainty_widths=(3,))
        mlp.save_checkpoint(tmp_path / "m.bin", mlp.TwoBranchMlp(spec))

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(mlp, target, fail)
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", "run2", "--samples", "4"]) == 2
        assert capsys.readouterr().err.rstrip() == f"{kind} error: {error}"
        assert not (tmp_path / "run2").exists()

    @pytest.mark.parametrize("command, module, target", [
        ("simulate", simulation, "make_phantom"), ("bootstrap", bs, "wild_bootstrap_table"),
    ])
    def test_missing_out_dir_is_config_error_before_the_stage_computes(
        self, tmp_path, capsys, monkeypatch, command, module, target
    ):
        body = BASE.format(snr="28").replace("out_dir = run", "dataset.path = data/dataset.bin")
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg, "--out", "data"]) == 0

        def fail(*args, **kwargs):
            raise RuntimeError("the stage computed")

        monkeypatch.setattr(module, target, fail)
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err.rstrip() == "config error: missing config key: out_dir"

    @pytest.mark.parametrize("name, value, message", [
        ("scheme.bval", "nan", "bvalues must be finite"),
        ("scheme.bval", "inf", "bvalues must be finite"),
        ("scheme.bvec", "nan", "directions must be finite"),
        ("scheme.bvec", "inf", "directions must be finite"),  # not renormalized: inf / inf warns
    ])
    @pytest.mark.parametrize("command", ["fit", "bootstrap"])
    def test_non_finite_scheme_is_data_error_naming_file(
        self, tmp_path, capsys, command, name, value, message
    ):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        assert main(["simulate", "--config", cfg]) == 0
        bvalues = (tmp_path / "run/scheme.bval").read_text().split()
        column = next(i for i, b in enumerate(bvalues) if float(b) > 0)
        path = tmp_path / "run" / name
        rows = [line.split() for line in path.read_text().splitlines()]
        rows[0][column] = value
        path.write_text("".join(" ".join(row) + "\n" for row in rows))
        before = dir_hashes(tmp_path / "run")
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.rstrip() == f"data error: {path}: {message}"
        assert dir_hashes(tmp_path / "run") == before

    def test_header_declaring_more_than_the_file_holds_is_data_error(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "evaluate.predictions = f.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "f.bin"
        path.write_bytes(b'{"kind": "fits", "n_voxels": 1000000000000000, "version": 1}\n'
                         + np.zeros(16).tobytes())
        before = dir_hashes(tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err.rstrip() == f"data error: {path}: truncated block"
        assert dir_hashes(tmp_path / "run") == before

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

    def test_scoring_stages_leave_the_signals_unread(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap", "curves"):
            assert main([cmd, "--config", cfg]) == 0
        curves = (tmp_path / "run/curves_fa.csv").read_bytes()
        path = tmp_path / "run/dataset.bin"
        header, signals, truth, _ = dataio.read_dataset(path)
        signals[7, 5] = np.nan
        dataio.write_dataset(path, signals, "scheme", truth_elements=truth, seed=header["seed"])
        for cmd in ("calibrate", "evaluate", "curves"):  # they use no signal
            assert main([cmd, "--config", cfg]) == 0
        assert (tmp_path / "run/curves_fa.csv").read_bytes() == curves
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2  # train uses them, and refuses the voxel
        assert "voxel 7, measurement 5" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    @pytest.mark.parametrize("estimator", ["wlls", "cwlls"])
    def test_huge_finite_signals_fit_as_the_voxel_unscaled(self, tmp_path, estimator, scale):
        # the squared WLLS weights of signals past ~1.3e154 overflow unless each
        # row of weights is rescaled first
        body = BASE.format(snr="28") + f"fit.estimator = {estimator}\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "fit"):
            assert main([cmd, "--config", cfg]) == 0
        fits = dataio.read_fits(tmp_path / "run/fits.bin")[1]
        path = tmp_path / "run/dataset.bin"
        header, signals, truth, _ = dataio.read_dataset(path)
        signals[7] *= scale
        dataio.write_dataset(path, signals, "scheme", truth_elements=truth, seed=header["seed"])
        assert main(["fit", "--config", cfg]) == 0
        scaled = dataio.read_fits(tmp_path / "run/fits.bin")[1]
        assert np.array_equal(np.delete(scaled, 7, axis=0), np.delete(fits, 7, axis=0))
        size = np.abs(fits[7, :6]).max()
        assert np.all(np.abs(scaled[7, :6] - fits[7, :6]) <= 1e-9 * size)
        assert scaled[7, 6] - fits[7, 6] == pytest.approx(np.log(scale), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_huge_finite_signals_bootstrap_as_the_voxel_unscaled(self, tmp_path, scale):
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg]) == 0
        table = dataio.read_predictions(tmp_path / "run/predictions_wbs.bin")[1]
        path = tmp_path / "run/dataset.bin"
        header, signals, truth, _ = dataio.read_dataset(path)
        signals[7] *= scale
        dataio.write_dataset(path, signals, "scheme", truth_elements=truth, seed=header["seed"])
        assert main(["bootstrap", "--config", cfg]) == 0
        scaled = dataio.read_predictions(tmp_path / "run/predictions_wbs.bin")[1]
        others = np.delete(np.arange(len(table)), 7)
        assert np.array_equal(scaled[others], table[others], equal_nan=True)
        cols = [0, 1, 5, 6, 7]  # fa, md, theta95, sigma_fa, sigma_md
        assert np.all(np.abs(scaled[7, cols] - table[7, cols]) <= 1e-9 * np.abs(table[7, cols]))
        assert abs(np.dot(scaled[7, 2:5], table[7, 2:5])) == pytest.approx(1.0, abs=1e-12)

    def test_nan_fit_is_data_error_naming_voxel_and_element(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "evaluate.predictions = run/fits.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "fit"):
            assert main([cmd, "--config", cfg]) == 0
        path = tmp_path / "run/fits.bin"
        header, params = dataio.read_fits(path)
        params[4, 2] = np.nan
        dataio.write_fits(path, params, header["estimator"])
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {path}: voxel 4, element 2: fit nan must be finite"
        )
        assert not (tmp_path / "run/metrics.json").exists()

    def test_nan_checkpoint_parameter_is_data_error_naming_index(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "predict.model = m.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "m.bin"
        spec = mlp.MlpSpec(input_dim=32, hidden_widths=(4,), uncertainty_widths=(3,))
        model = mlp.TwoBranchMlp(spec)
        model.flat[9] = np.nan
        mlp.save_checkpoint(path, model)
        capsys.readouterr()
        assert main(["predict", "--config", cfg, "--samples", "4"]) == 2
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {path}: mlp_checkpoint parameter 9 = nan must be finite"
        )
        assert not (tmp_path / "run/predictions_dl.bin").exists()

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
        ("phantom.fa_target", "1.0"),
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
        ("seed = 4294967296", "seed", "line 14"),  # 2**32 would key as two words
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

    def test_table_of_another_kind_is_data_error_naming_kind(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "evaluate.predictions = run/dataset.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        before = dir_hashes(tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        path = tmp_path / "run/dataset.bin"
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {path}: cannot evaluate file of kind 'dataset'"
        )
        assert dir_hashes(tmp_path / "run") == before

    def test_header_lacking_fields_is_data_error_naming_path_and_field(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "evaluate.predictions = p.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        (tmp_path / "p.bin").write_bytes(b'{"kind": "predictions"}\n')
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'p.bin'}: ") and "n_voxels" in err

    def test_header_field_of_wrong_type_is_data_error_naming_path_and_field(
        self, tmp_path, capsys
    ):
        body = BASE.format(snr="28") + "evaluate.predictions = p.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "p.bin"
        dataio.write_predictions(path, np.zeros((24, 9)), "wbs")
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head.replace(b'"n_voxels": 24', b'"n_voxels": "24"') + b"\n" + rest)
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: predictions header field n_voxels = '24' ")
        assert not (tmp_path / "run/metrics.json").exists()

    def test_checkpoint_spec_with_unknown_key_is_data_error_naming_path(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "predict.model = m.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "m.bin"
        spec = mlp.MlpSpec(input_dim=32, hidden_widths=(4,), uncertainty_widths=(3,))
        mlp.save_checkpoint(path, mlp.TwoBranchMlp(spec))
        head, rest = path.read_bytes().split(b"\n", 1)
        path.write_bytes(head.replace(b'"spec": {', b'"spec": {"bogus": 1, ') + b"\n" + rest)
        capsys.readouterr()
        assert main(["predict", "--config", cfg, "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: mlp_checkpoint spec refused: ")
        assert "bogus" in err
        assert not (tmp_path / "run/predictions_dl.bin").exists()

    @pytest.mark.parametrize("field, value", [("target_scale", b"0"), ("input_dim", b"0")])
    def test_checkpoint_spec_with_bad_value_is_data_error_naming_path_and_field(
        self, tmp_path, capsys, field, value
    ):
        body = BASE.format(snr="28") + "predict.model = m.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "m.bin"
        spec = mlp.MlpSpec(input_dim=32, hidden_widths=(4,), uncertainty_widths=(3,))
        mlp.save_checkpoint(path, mlp.TwoBranchMlp(spec))
        head, rest = path.read_bytes().split(b"\n", 1)
        key = f'"{field}": '.encode()
        old = key + str(getattr(spec, field)).encode()
        assert old in head  # fixture sanity
        path.write_bytes(head.replace(old, key + value) + b"\n" + rest)
        capsys.readouterr()
        assert main(["predict", "--config", cfg, "--samples", "4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: mlp_checkpoint spec refused: {field} must ")
        assert not (tmp_path / "run/predictions_dl.bin").exists()

    def test_checkpoint_of_another_scheme_is_data_error_naming_both_files(self, tmp_path, capsys):
        body = BASE.format(snr="28") + "predict.model = m.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        path = tmp_path / "m.bin"
        spec = mlp.MlpSpec(input_dim=12, hidden_widths=(4,), uncertainty_widths=(3,))
        mlp.save_checkpoint(path, mlp.TwoBranchMlp(spec))
        capsys.readouterr()
        assert main(["predict", "--config", cfg, "--samples", "4"]) == 2
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {path}: checkpoint input_dim 12 does not match "
            f"the 32 measurements of {tmp_path / 'run/dataset.bin'}"
        )
        assert not (tmp_path / "run/predictions_dl.bin").exists()

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

    @pytest.mark.parametrize("given, missing", [
        ("scheme.bvec", "scheme.bval"), ("scheme.bval", "scheme.bvec"),
    ])
    def test_half_a_scheme_pair_is_config_error(self, tmp_path, capsys, given, missing):
        # BASE sets scheme.n_directions, which a full pair would override
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28") + f"{given} = nonexistent\n")
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.rstrip()
        assert err == f"config error: line 14: {given} is set without {missing}"
        assert not (tmp_path / "run").exists()

    def test_no_scheme_is_config_error(self, tmp_path, capsys):
        body = BASE.format(snr="28").replace("scheme.n_directions = 30\n", "")
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.rstrip()
        assert err == "config error: scheme needs bvec/bval paths or n_directions"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["fit", "bootstrap", "train"])
    def test_dataset_of_no_voxels_is_data_error_naming_path(self, tmp_path, capsys, command):
        body = BASE.format(snr="28") + "dataset.path = data/dataset.bin\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg, "--out", "data"]) == 0
        path = tmp_path / "data/dataset.bin"
        dataio.write_dataset(path, np.zeros((0, 32)), "scheme", np.zeros((0, 6)))
        capsys.readouterr()
        assert main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err.rstrip()
        assert err == f"data error: {path}: dataset header field n_voxels = 0 must be >= 1"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n_voxels", [40, 80])
    @pytest.mark.parametrize("command", ["calibrate", "evaluate", "curves"])
    def test_table_of_another_dataset_is_data_error_naming_both(
        self, tmp_path, capsys, command, n_voxels
    ):
        body = BASE.format(snr="28").replace("n_voxels = 24", "n_voxels = 60")
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "bootstrap"):
            assert main([cmd, "--config", cfg, "--iterations", "20"]) == 0
        other = body.replace("n_voxels = 60", f"n_voxels = {n_voxels}")
        assert main(["simulate", "--config", write_cfg(tmp_path / "o.cfg", other),
                     "--out", "other"]) == 0
        table, dataset = tmp_path / "run/predictions_wbs.bin", tmp_path / "other/dataset.bin"
        scored = body + f"dataset.path = {dataset}\n{command}.predictions = {table}\n"
        capsys.readouterr()
        assert main([command, "--config", write_cfg(tmp_path / "s.cfg", scored),
                     "--out", "scored"]) == 2
        err = capsys.readouterr().err.rstrip()
        assert err == (f"data error: {table}: the table holds 60 rows, but {dataset} holds "
                       f"{n_voxels} voxels")
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("line", [
        "train.val_fraction = 1.5",  # no training rows
        "train.epochs = 0",
        "train.learning_rate = -1",
        "train.batch_size = 0",
        "train.eval_every = 0",
        "train.hidden_widths = 0",
        "train.dropout_rate = 1.5",
        "train.penalty = 0",
        "train.uncertainty_widths = 0",
        "train.stop_patience = 0",
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
        fa, md, v1 = pipeline.tensor_scalars(truth)
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

    @pytest.mark.parametrize("split, held", [(0.5, 120), (0.3, 168), (0.75, 60)])
    def test_fractional_split(self, tmp_path, split, held):
        # every split holds out the tail of one shuffle of the 240 voxels
        cfg_path, out = self.make_miscalibrated_run(tmp_path)
        (tmp_path / "e.cfg").write_text(
            (tmp_path / "e.cfg").read_text() + f"calibrate.split = {split}\n"
        )
        assert main(["calibrate", "--config", cfg_path]) == 0
        header, table = dataio.read_predictions(out / "predictions_recalibrated.bin")
        perm = run_stream(11, CALIBRATE_SPLIT).permutation(240)
        assert len(table) == held
        assert header["meta"]["holdout"] == sorted(perm[240 - held:])

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
        lambda h: h["meta"]["holdout"].__setitem__(1, h["meta"]["holdout"][0]),  # a repeat
    ], ids=["no-meta", "no-holdout", "short", "past-end", "negative", "repeated"])
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


class TestTruthEigensolves:
    """calibrate, evaluate and curves decompose only the truth rows that the
    closed form of principal_scalars leaves loose."""

    @pytest.mark.parametrize("generator", ["prolate", "random_spd"])
    def test_only_loose_rows_reach_eigh(self, tmp_path, monkeypatch, generator):
        body = BASE.format(snr="inf").replace("n_voxels = 24", "n_voxels = 600")
        body = body.replace("= prolate", f"= {generator}")
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        out = tmp_path / "run"
        _, _, truth, _ = dataio.read_dataset(out / "dataset.bin")
        fa, md, v1 = pipeline.tensor_scalars(truth)
        sigma = np.full(len(truth), 0.02)
        table = np.column_stack(
            [fa + sigma, md, v1, np.full(len(truth), 10.0), sigma, sigma * md, sigma]
        )
        dataio.write_predictions(out / "predictions_wbs.bin", table, "wbs")
        evals = eigh3_batch(truth)[0]
        loose = principal_scalars(truth)[3]
        if generator == "prolate":
            assert np.all(evals[:, 0] >= 1.3 * evals[:, 1])
        else:
            assert 0 < loose.sum() < len(truth)

        rows = []

        def counted(mats):
            rows.append(len(mats))
            return eigh3_batch(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("dticalib") and getattr(module, "eigh3_batch", None) is eigh3_batch:
                monkeypatch.setattr(module, "eigh3_batch", counted)
        for command in ("calibrate", "evaluate", "curves"):
            assert main([command, "--config", cfg]) == 0
        # before and after share one decomposition of the held-out truth
        recalibrated = body + "evaluate.recalibrated = run/predictions_recalibrated.bin\n"
        assert main(["evaluate", "--config", write_cfg(tmp_path / "r.cfg", recalibrated)]) == 0
        header, _ = dataio.read_predictions(out / "predictions_recalibrated.bin")
        holdout = np.zeros(len(truth), bool)
        holdout[header["meta"]["holdout"]] = True
        expected = [loose[~holdout].sum(), loose.sum(), loose.sum(), loose[holdout].sum()]
        assert rows == expected
        if generator == "prolate":
            assert rows == [0, 0, 0, 0]


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
        # the wild bootstrap and MC dropout, each bit for bit
        body = BASE.format(snr="28") + (
            "train.epochs = 3\ntrain.dropout_rate = 0.3\npredict.samples = 30\n"
        )
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "bootstrap", "train", "predict"):
            assert main([cmd, "--config", cfg]) == 0
        iterations, samples, n = 120, 30, 24
        stages = {"bootstrap": ("predictions_wbs.bin", iterations),
                  "predict": ("predictions_dl.bin", samples)}
        defaults = {}
        for stage, (name, replicates) in stages.items():
            path = tmp_path / "run" / name
            defaults[stage] = dataio.read_predictions(path)[1]
            for rows in (1, replicates * n):  # one voxel per chunk, all voxels in one
                monkeypatch.setattr(bs, "CHUNK_ROWS", rows)
                assert main([stage, "--config", cfg]) == 0
                table = dataio.read_predictions(path)[1]
                assert np.array_equal(table, defaults[stage], equal_nan=True), (stage, rows)

        _, signals, _, scheme = dataio.read_dataset(tmp_path / "run/dataset.bin")
        perm = np.random.default_rng(3).permutation(n)
        permuted = bs.wild_bootstrap_table(signals[perm], scheme, iterations, 11, voxels=perm)
        assert np.array_equal(permuted, defaults["bootstrap"][perm], equal_nan=True)
        model, _ = mlp.load_checkpoint(tmp_path / "run/model.bin")
        inputs = mlp.normalize_signals(signals, scheme)[perm]
        permuted = mlp.predict_mc_dropout(model, inputs, samples, seed=11, voxels=perm)
        assert np.array_equal(bs.summarize_uncertainty(permuted), defaults["predict"][perm, 5:8])

    @pytest.mark.parametrize("snr", ["28", "8"])  # at 8 dB some rows are floored
    @pytest.mark.parametrize("estimator", ["ols", "wlls", "cwlls"])
    def test_fits_follow_a_voxel_permutation(self, tmp_path, estimator, snr):
        body = BASE.format(snr=snr) + f"fit.estimator = {estimator}\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "fit"):
            assert main([cmd, "--config", cfg]) == 0
        _, signals, truth, _ = dataio.read_dataset(tmp_path / "run/dataset.bin")
        perm = np.random.default_rng(5).permutation(len(signals))
        (tmp_path / "perm").mkdir()
        for name in ("scheme.bvec", "scheme.bval"):
            shutil.copy(tmp_path / "run" / name, tmp_path / "perm" / name)
        dataio.write_dataset(tmp_path / "perm/dataset.bin", signals[perm], "scheme", truth[perm])
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "perm")]) == 0
        header, fits = dataio.read_fits(tmp_path / "run/fits.bin")
        assert header["estimator"] == estimator
        assert np.array_equal(dataio.read_fits(tmp_path / "perm/fits.bin")[1], fits[perm])

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


class TestManifestCarryOver:
    """A stage keeps the digest that the manifest.json in out_dir records for a
    file only when the file is shown unchanged since that manifest was written;
    every change below must reach the next stage's manifest."""

    def recorded(self, out):
        return json.loads((out / "manifest.json").read_text())["outputs"]

    def recomputed(self, out):
        return {name: d for name, d in dir_hashes(out).items() if name != "manifest.json"}

    def simulate_change_fit(self, tmp_path, before, change):
        """Runs before(out, tmp_path), simulate, change(out, tmp_path), then fit;
        returns out."""
        cfg = write_cfg(tmp_path / "e.cfg", BASE.format(snr="28"))
        out = tmp_path / "run"
        out.mkdir()
        before(out, tmp_path)
        time.sleep(0.05)  # so that what before made predates the manifest on any clock
        assert main(["simulate", "--config", cfg]) == 0
        change(out, tmp_path)
        assert main(["fit", "--config", cfg]) == 0
        return out

    def test_every_stage_of_a_chain_records_every_file(self, tmp_path):
        body = BASE.format(snr="28") + (
            "train.epochs = 3\npredict.samples = 8\n"
            "evaluate.recalibrated = run/predictions_recalibrated.bin\n"
        )
        cfg = write_cfg(tmp_path / "e.cfg", body)
        out = tmp_path / "run"
        for cmd in ("simulate", "fit", "bootstrap", "train", "predict", "calibrate", "evaluate",
                    "curves"):
            assert main([cmd, "--config", cfg]) == 0
            assert self.recorded(out) == self.recomputed(out), cmd

    @staticmethod
    def write_extra(out, _):
        (out / "extra.dat").write_bytes(b"recorded")

    @staticmethod
    def edit(out, _):
        (out / "extra.dat").write_bytes(b"edited, and longer")

    @staticmethod
    def edit_keeping_size_and_mtime(out, _):
        path = out / "extra.dat"
        before = os.stat(path)
        assert before.st_mtime_ns < os.stat(out / "manifest.json").st_mtime_ns  # fixture sanity
        path.write_bytes(b"RECORDED")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))

    @staticmethod
    def write_extra_and_older(out, tmp_path):
        (out / "extra.dat").write_bytes(b"recorded")
        (tmp_path / "older.dat").write_bytes(b"older, moved in")

    @staticmethod
    def move_older_in(out, tmp_path):
        os.replace(tmp_path / "older.dat", out / "extra.dat")

    @staticmethod
    def link_to_a(out, tmp_path):
        (tmp_path / "a.dat").write_bytes(b"target a")
        (tmp_path / "b.dat").write_bytes(b"target b")
        os.symlink(tmp_path / "a.dat", out / "link.dat")

    @staticmethod
    def repoint_to_b(out, tmp_path):
        os.remove(out / "link.dat")
        os.symlink(tmp_path / "b.dat", out / "link.dat")

    @staticmethod
    def add_new(out, _):
        (out / "new.dat").write_bytes(b"new")

    @staticmethod
    def delete_extra(out, _):
        os.remove(out / "extra.dat")

    @pytest.mark.parametrize("before, change, name", [
        (write_extra, edit, "extra.dat"),
        (write_extra, edit_keeping_size_and_mtime, "extra.dat"),
        (write_extra_and_older, move_older_in, "extra.dat"),
        (link_to_a, repoint_to_b, "link.dat"),
        (write_extra, add_new, "new.dat"),
    ], ids=["edited", "same-size-mtime-restored", "older-file-replaced-in", "symlink-repointed",
            "new-file"])
    def test_changed_file_gets_its_new_digest(self, tmp_path, before, change, name):
        out = self.simulate_change_fit(tmp_path, before, change)
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert self.recorded(out)[name] == digest
        assert self.recorded(out) == self.recomputed(out)

    def test_deleted_file_is_dropped(self, tmp_path):
        out = self.simulate_change_fit(tmp_path, self.write_extra, self.delete_extra)
        assert "extra.dat" not in self.recorded(out)
        assert self.recorded(out) == self.recomputed(out)

    def hashed_by_fit(self, tmp_path, monkeypatch, change):
        """The names of the files sha256_file hashes in fit, after change."""
        hashed = []

        def spy(path):
            hashed.append(str(Path(path).relative_to(tmp_path / "run")))
            return original(path)

        def change_then_spy(out, tmp_path):
            change(out, tmp_path)
            monkeypatch.setattr(dataio, "sha256_file", spy)

        original = dataio.sha256_file
        out = self.simulate_change_fit(tmp_path, self.write_extra, change_then_spy)
        assert self.recorded(out) == self.recomputed(out)
        return sorted(hashed), sorted(self.recomputed(out))

    def test_unchanged_file_keeps_its_recorded_digest(self, tmp_path, monkeypatch):
        hashed, listed = self.hashed_by_fit(tmp_path, monkeypatch, lambda out, _: None)
        assert "extra.dat" in listed and "extra.dat" not in hashed and "fits.bin" in hashed

    @pytest.mark.parametrize("manifest", [None, b"{not json", b"[]", b'{"outputs": []}'],
                             ids=["missing", "not-json", "not-an-object", "outputs-not-a-map"])
    def test_missing_or_garbled_manifest_hashes_every_file(self, tmp_path, monkeypatch, manifest):
        def replace_manifest(out, _):
            os.remove(out / "manifest.json")
            if manifest is not None:
                (out / "manifest.json").write_bytes(manifest)

        hashed, listed = self.hashed_by_fit(tmp_path, monkeypatch, replace_manifest)
        assert hashed == listed


class TestSimulatePinned:
    # sha256 of dataset.bin as the per-voxel phantom wrote it (numpy 2.4, x86-64)
    PINNED = {
        ("prolate", "uniform"): "b2a4b4284355528b5788ca6dc1d9f51fc4373ba80aab39be81881ccd69629b14",
        ("prolate", "fixed"): "86f51d0b7c9f15df847536ac50af319a6150188581e488da886188d40d0a65ec",
        ("oblate", "uniform"): "8521757b7844efe425fff447a5ca0e3f44c50fdd278c2305a55439b0a7bdcafb",
        ("oblate", "fixed"): "adff1d4fdcf28bf50dc9ed31b3c21a26fc623edf73f06863c6cc0ee5ee288201",
        ("random_spd", "uniform"): "acc414d97a812d13d2a6863645adf707e8dcd4fc9727d089705518250999da3f",
        ("random_spd", "fixed"): "8d806dbe6a171e3c83be7f78c4fa7d1375dbe756ed8cd697b4150043b13ac5b1",
        ("two_population", "uniform"): "47193dbc862aa76de34d2e9491074863fa2d21be6e2984c69deb31d01675d739",
        ("two_population", "fixed"): "a1919d25acad0b6564abfd5af467d315333e694ac00f41fb49e34401d53ec759",
    }

    @staticmethod
    def simulate(tmp_path, generator, orientation):
        body = (
            f"out_dir = run\nseed = 11\nphantom.generator = {generator}\n"
            f"phantom.n_voxels = 40\nphantom.orientation = {orientation}\n"
            "phantom.snr_db = 28\nscheme.n_directions = 30\n"
        )
        if generator == "oblate":
            body += "phantom.fa_target = 0.5\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        assert main(["simulate", "--config", cfg]) == 0
        return tmp_path / "run/dataset.bin"

    @PINNED_DISPATCH
    @pytest.mark.parametrize("generator, orientation", sorted(PINNED))
    def test_dataset_matches_pinned_digest(self, tmp_path, generator, orientation):
        path = self.simulate(tmp_path, generator, orientation)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED[generator, orientation]

    @pytest.mark.parametrize("generator, orientation", sorted(PINNED))
    def test_dataset_matches_per_voxel_reference(self, tmp_path, generator, orientation):
        _, signals, truth, _ = dataio.read_dataset(self.simulate(tmp_path, generator, orientation))
        spec = PhantomSpec(  # simulate's scheme; the one read back may differ in the last bit
            n_voxels=40, scheme=make_scheme(30), generator=generator, orientation=orientation,
            snr_db=28.0, seed=11, fa_target=0.5 if generator == "oblate" else 0.8,
        )
        expected_signals, expected_truth, _ = reference_phantom(spec)
        assert np.array_equal(signals, expected_signals) and np.array_equal(truth, expected_truth)


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
        header, table = dataio.read_predictions(tmp_path / "run/predictions_dl.bin")
        assert np.all(np.isfinite(table[:, 8]))  # aleatoric u column
        truth = dataio.read_dataset(tmp_path / "run/dataset.bin")[2]
        assert header["meta"]["truth_sha256"] == dataio.truth_sha256(truth)
        metrics = json.loads((tmp_path / "run/metrics.json").read_text())
        for p in ("fa", "md", "theta"):
            assert metrics[p]["ence"] is not None
            assert 0.0 <= metrics[p]["aucc"] <= 1.0


class TestDlReproducibility:
    BODY = BASE.format(snr="28") + "train.epochs = 3\ntrain.dropout_rate = 0.3\npredict.samples = 30\n"
    HALF = BODY.replace("dropout_rate = 0.3", "dropout_rate = 0.5")  # one bit per keep decision
    N, SAMPLES = 24, 30

    def train_and_predict(self, tmp_path, body=BODY):
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "train", "predict"):
            assert main([cmd, "--config", cfg]) == 0
        return cfg

    def check_rerun(self, tmp_path, body):
        self.train_and_predict(tmp_path, body)
        first = dir_hashes(tmp_path / "run")
        shutil.rmtree(tmp_path / "run")
        self.train_and_predict(tmp_path, body)
        assert dir_hashes(tmp_path / "run") == first

    def test_rerun_is_byte_identical(self, tmp_path):
        self.check_rerun(tmp_path, self.BODY)

    def test_rerun_at_half_rate_is_byte_identical(self, tmp_path):
        self.check_rerun(tmp_path, self.HALF)

    def test_chunk_size_and_voxel_order_at_half_rate_do_not_change_results(
        self, tmp_path, monkeypatch
    ):
        # the rate-0.3 case is TestReproducibility's
        cfg = self.train_and_predict(tmp_path, self.HALF)
        path = tmp_path / "run/predictions_dl.bin"
        default = dataio.read_predictions(path)[1]
        for rows in (1, self.SAMPLES * self.N):  # one voxel per chunk, all voxels in one
            monkeypatch.setattr(bs, "CHUNK_ROWS", rows)
            assert main(["predict", "--config", cfg]) == 0
            assert np.array_equal(dataio.read_predictions(path)[1], default), rows

        _, signals, _, scheme = dataio.read_dataset(tmp_path / "run/dataset.bin")
        model, _ = mlp.load_checkpoint(tmp_path / "run/model.bin")
        inputs = mlp.normalize_signals(signals, scheme)
        perm = np.random.default_rng(3).permutation(self.N)
        permuted = bs.summarize_uncertainty(
            mlp.predict_mc_dropout(model, inputs[perm], self.SAMPLES, seed=11, voxels=perm)
        )
        assert np.array_equal(permuted, default[perm, 5:8])

    def test_train_history_records_the_run_and_reruns_to_the_same_bytes(self, tmp_path):
        # an evaluation every epoch at a rate high enough that validation stalls
        body = self.BODY + "train.epochs = 8\ntrain.eval_every = 1\ntrain.learning_rate = 0.05\n"
        cfg = write_cfg(tmp_path / "e.cfg", body)
        for cmd in ("simulate", "train"):
            assert main([cmd, "--config", cfg]) == 0
        path = tmp_path / "run/train_history.json"
        first = path.read_bytes()
        history = json.loads(first)
        _, signals, truth, scheme = dataio.read_dataset(tmp_path / "run/dataset.bin")
        _, header = mlp.load_checkpoint(tmp_path / "run/model.bin")
        spec, tcfg = mlp.MlpSpec(**header["spec"]), mlp.TrainConfig(**header["config"])
        _, expected = mlp.train(mlp.normalize_signals(signals, scheme), truth, spec, tcfg)
        assert history == {
            "train_loss": expected.train_loss,
            "val_loss": [list(pair) for pair in expected.val_loss],
            "lr_steps": [list(pair) for pair in expected.lr_steps],
            "stopped_epoch": header["epoch"],
        }
        assert expected.lr_steps and expected.stopped_epoch < 7  # the run stopped early
        assert main(["train", "--config", cfg]) == 0
        assert path.read_bytes() == first

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


SIXTY = BASE.format(snr="28").replace("n_voxels = 24", "n_voxels = 60").replace(
    "metrics.bins = 6", "metrics.bins = 4"
)


def wild_bootstrap_run(tmp_path):
    """(config path, table path, dataset path) of a 60-voxel prolate bootstrap, seed 11."""
    cfg = write_cfg(tmp_path / "e.cfg", SIXTY + "dataset.path = run/dataset.bin\n")
    for cmd in ("simulate", "bootstrap"):
        assert main([cmd, "--config", cfg, "--iterations", "20"]) == 0
    return cfg, tmp_path / "run/predictions_wbs.bin", tmp_path / "run/dataset.bin"


def score(tmp_path, command, table, dataset, extra=""):
    """Exit code of one scoring stage of table against dataset, written to scored/."""
    body = SIXTY + f"dataset.path = {dataset}\n{command}.predictions = {table}\n" + extra
    return main([command, "--config", write_cfg(tmp_path / "s.cfg", body), "--out", "scored"])


class TestScoringErrorsNameTableColumnRow:
    def splits(self):
        perm = run_stream(11, CALIBRATE_SPLIT).permutation(60)
        return np.sort(perm[:30]), np.sort(perm[30:])  # calibration, held-out

    @pytest.mark.parametrize("value", [np.nan, -1.0], ids=["nan", "negative"])
    @pytest.mark.parametrize("command, split, detail", [
        ("calibrate", 0, "need finite values and sigma >= 0, got truth="),
        ("calibrate", 1, "need finite sigma >= 0, got "),
        ("evaluate", 1, "need finite values and sigma >= 0, got truth="),
        ("evaluate-recalibrated", 1, "need finite values and sigma >= 0, got truth="),
        ("curves", 1, "need finite values and sigma >= 0, got truth="),
    ], ids=["calibrate-calibration-split", "calibrate-held-out", "evaluate",
            "evaluate-recalibrated", "curves"])
    def test_bad_sigma_names_table_column_and_file_row(
        self, tmp_path, capsys, command, split, detail, value
    ):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        voxel = int(self.splits()[split][3])
        extra = ""
        if command == "evaluate-recalibrated":
            assert score(tmp_path, "calibrate", table, dataset) == 0
            recal = tmp_path / "recal.bin"
            shutil.move(tmp_path / "scored/predictions_recalibrated.bin", recal)
            shutil.rmtree(tmp_path / "scored")
            extra, command = f"evaluate.recalibrated = {recal}\n", "evaluate"
        header, rows = dataio.read_predictions(table)
        rows[voxel, 6] = value
        dataio.write_predictions(table, rows, header["method"], header["meta"])
        capsys.readouterr()
        assert score(tmp_path, command, table, dataset, extra) == 2
        err = capsys.readouterr().err.rstrip()
        assert err.startswith(f"data error: {table}: row {voxel}, sigma_fa: {detail}")
        assert err.endswith(f"sigma={value!r}")
        assert not (tmp_path / "scored").exists()

    def test_bad_recalibrated_row_names_its_row_in_that_file(self, tmp_path, capsys):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        assert score(tmp_path, "calibrate", table, dataset) == 0
        recal = tmp_path / "recal.bin"
        shutil.move(tmp_path / "scored/predictions_recalibrated.bin", recal)
        shutil.rmtree(tmp_path / "scored")
        header, rows = dataio.read_predictions(recal)
        rows[7, 5] = -2.0  # theta95, scored as sigma -1.0
        dataio.write_predictions(recal, rows, header["method"], header["meta"])
        capsys.readouterr()
        extra = f"evaluate.recalibrated = {recal}\n"
        assert score(tmp_path, "evaluate", table, dataset, extra) == 2
        err = capsys.readouterr().err.rstrip()
        assert err.startswith(f"data error: {recal}: row 7, theta95: need finite values")
        assert err.endswith("sigma=-1.0")
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("command", ["evaluate", "curves"])
    def test_aleatoric_u_of_a_wild_bootstrap_table_names_table_column_and_row(
        self, tmp_path, capsys, command
    ):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        capsys.readouterr()
        assert score(tmp_path, command, table, dataset, "evaluate.uncertainty = aleatoric\n") == 2
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {table}: row 0, aleatoric_u: aleatoric sigma requested, "
            "but u = nan is not finite"
        )
        assert not (tmp_path / "scored").exists()


def test_evaluate_hashes_the_truth_once(tmp_path, monkeypatch):
    _, table, dataset = wild_bootstrap_run(tmp_path)
    assert score(tmp_path, "calibrate", table, dataset) == 0
    recal = tmp_path / "recal.bin"
    shutil.move(tmp_path / "scored/predictions_recalibrated.bin", recal)
    hashed = []

    def spy(truth):
        hashed.append(len(truth))
        return original(truth)

    original = dataio.truth_sha256
    monkeypatch.setattr(dataio, "truth_sha256", spy)
    assert score(tmp_path, "evaluate", table, dataset, f"evaluate.recalibrated = {recal}\n") == 0
    assert hashed == [60]  # both tables record the digest; one hash checks both


class TestTruthDigest:
    def other_dataset(self, tmp_path, replace):
        """dataset.bin of a 60-voxel phantom, SIXTY with each (old, new) of replace."""
        body = SIXTY
        for old, new in replace:
            body = body.replace(old, new)
        assert main(["simulate", "--config", write_cfg(tmp_path / "o.cfg", body),
                     "--out", "other"]) == 0
        return tmp_path / "other/dataset.bin"

    def test_tables_record_the_truth_and_calibrate_carries_it(self, tmp_path):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        digest = dataio.truth_sha256(dataio.read_dataset(dataset)[2])
        assert dataio.read_predictions(table)[0]["meta"]["truth_sha256"] == digest
        assert score(tmp_path, "calibrate", table, dataset) == 0
        recal = dataio.read_predictions(tmp_path / "scored/predictions_recalibrated.bin")[0]
        assert recal["meta"]["truth_sha256"] == digest

    @pytest.mark.parametrize("command", ["calibrate", "evaluate", "curves"])
    def test_table_of_another_truth_is_data_error_naming_both(self, tmp_path, capsys, command):
        _, table, _ = wild_bootstrap_run(tmp_path)
        other = self.other_dataset(
            tmp_path, [("generator = prolate", "generator = random_spd"), ("seed = 11", "seed = 7")]
        )
        recorded = dataio.read_predictions(table)[0]["meta"]["truth_sha256"]
        actual = dataio.truth_sha256(dataio.read_dataset(other)[2])
        capsys.readouterr()
        assert score(tmp_path, command, table, other) == 2
        assert capsys.readouterr().err.rstrip() == (
            f"data error: {table}: meta.truth_sha256 = {recorded} does not match the truth "
            f"of {other} ({actual})"
        )
        assert not (tmp_path / "scored").exists()

        # a table that records no truth is scored as it always was
        header, rows = dataio.read_predictions(table)
        del header["meta"]["truth_sha256"]
        dataio.write_predictions(table, rows, header["method"], header["meta"])
        assert score(tmp_path, command, table, other) == 0

    def test_recalibrated_table_of_another_truth_is_data_error(self, tmp_path, capsys):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        assert score(tmp_path, "calibrate", table, dataset) == 0
        recal = tmp_path / "recal.bin"
        shutil.move(tmp_path / "scored/predictions_recalibrated.bin", recal)
        shutil.rmtree(tmp_path / "scored")
        header, rows = dataio.read_predictions(table)
        del header["meta"]["truth_sha256"]
        dataio.write_predictions(table, rows, header["method"], header["meta"])
        other = self.other_dataset(tmp_path, [("seed = 11", "seed = 7")])
        capsys.readouterr()
        assert score(tmp_path, "evaluate", table, other, f"evaluate.recalibrated = {recal}\n") == 2
        err = capsys.readouterr().err.rstrip()
        actual = dataio.truth_sha256(dataio.read_dataset(other)[2])
        assert err.startswith(f"data error: {recal}: meta.truth_sha256 = ")
        assert err.endswith(f"does not match the truth of {other} ({actual})")
        assert not (tmp_path / "scored").exists()

    @pytest.mark.parametrize("command", ["calibrate", "evaluate", "curves"])
    def test_same_truth_at_another_snr_is_scored(self, tmp_path, command):
        _, table, dataset = wild_bootstrap_run(tmp_path)
        other = self.other_dataset(tmp_path, [("snr_db = 28", "snr_db = 15")])
        _, signals, truth, _ = dataio.read_dataset(dataset)
        _, other_signals, other_truth, _ = dataio.read_dataset(other)
        assert np.array_equal(other_truth, truth)  # fixture sanity: the same truth,
        assert not np.array_equal(other_signals, signals)  # but other signals
        assert score(tmp_path, command, table, other) == 0
