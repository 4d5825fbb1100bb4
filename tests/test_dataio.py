import json

import numpy as np
import pytest

from dticalib.dataio import (
    DataFormatError,
    PREDICTION_COLUMNS,
    read_bvec_bval,
    read_dataset,
    read_fits,
    read_predictions,
    write_bvec_bval,
    write_dataset,
    write_fits,
    write_predictions,
)
from dticalib.simulation import make_scheme


class TestBvecBval:
    def write_pair(self, tmp_path, bvec_rows, bval_row):
        bvec = tmp_path / "g.bvec"
        bval = tmp_path / "g.bval"
        bvec.write_text("\n".join(bvec_rows) + "\n")
        bval.write_text(bval_row + "\n")
        return bvec, bval

    def test_basic_two_column_table(self, tmp_path):
        bvec, bval = self.write_pair(tmp_path, ["0 1", "0 0", "0 0"], "0 1000")
        scheme = read_bvec_bval(bvec, bval)
        assert np.array_equal(scheme.bvalues, [0.0, 1000.0])
        assert np.array_equal(scheme.directions[1], [1.0, 0.0, 0.0])
        assert np.array_equal(scheme.directions[0], [0.0, 0.0, 0.0])

    def test_renormalizes_with_warning(self, tmp_path):
        bvec, bval = self.write_pair(tmp_path, ["2", "0", "0"], "1000")
        with pytest.warns(UserWarning, match="renormalizing"):
            scheme = read_bvec_bval(bvec, bval)
        assert np.allclose(scheme.directions[0], [1.0, 0.0, 0.0])

    def test_parse_error_reports_position(self, tmp_path):
        bvec, bval = self.write_pair(tmp_path, ["0 x", "0 0", "0 0"], "0 1000")
        with pytest.raises(DataFormatError, match="line 1, column 2"):
            read_bvec_bval(bvec, bval)

    def test_count_mismatch(self, tmp_path):
        bvec, bval = self.write_pair(tmp_path, ["0 1", "0 0", "0 0"], "0 1000 2000")
        with pytest.raises(DataFormatError, match="disagree"):
            read_bvec_bval(bvec, bval)

    def test_roundtrip_identical(self, tmp_path):
        scheme = make_scheme(30, bvalue=987.5, n_b0=2)
        write_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval", scheme)
        back = read_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval")
        assert np.allclose(back.directions, scheme.directions, atol=1e-12)
        assert np.allclose(back.bvalues, scheme.bvalues, atol=1e-12)


class TestDatasetFile:
    def write_one(self, tmp_path, n=5, with_truth=True):
        scheme = make_scheme(10)
        rng = np.random.default_rng(0)
        signals = rng.uniform(0.1, 1.0, (n, len(scheme)))
        truth = rng.normal(size=(n, 6)) if with_truth else None
        write_bvec_bval(tmp_path / "scheme.bvec", tmp_path / "scheme.bval", scheme)
        path = tmp_path / "d.bin"
        write_dataset(path, signals, "scheme", truth_elements=truth, seed=3)
        return path, signals, truth

    def test_roundtrip(self, tmp_path):
        path, signals, truth = self.write_one(tmp_path)
        header, s, t, s0, scheme = read_dataset(path)
        assert header["seed"] == 3 and header["n_voxels"] == 5
        assert np.array_equal(s, signals)
        assert np.array_equal(t, truth)
        assert s0 is None
        assert scheme.n_measurements == 12

    def test_s0_block_roundtrip(self, tmp_path):
        scheme = make_scheme(10)
        rng = np.random.default_rng(6)
        signals = rng.uniform(0.1, 1.0, (4, len(scheme)))
        s0 = rng.uniform(0.8, 1.2, 4)
        write_bvec_bval(tmp_path / "scheme.bvec", tmp_path / "scheme.bval", scheme)
        path = tmp_path / "d.bin"
        write_dataset(path, signals, "scheme", s0=s0)
        _, _, truth, back_s0, _ = read_dataset(path)
        assert truth is None
        assert np.array_equal(back_s0, s0)

    def test_truncated_block_rejected(self, tmp_path):
        path, _, _ = self.write_one(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(DataFormatError, match="truncated"):
            read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path, _, _ = self.write_one(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing"):
            read_dataset(path)

    def test_version_checked(self, tmp_path):
        path, _, _ = self.write_one(tmp_path)
        raw = path.read_bytes()
        head, rest = raw.split(b"\n", 1)
        header = json.loads(head)
        header["version"] = 99
        path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + rest)
        with pytest.raises(DataFormatError, match="version"):
            read_dataset(path)

    def test_bad_signal_names_voxel_and_measurement(self, tmp_path):
        for bad in (np.nan, np.inf, -0.5):
            path, signals, truth = self.write_one(tmp_path)
            signals[3, 4] = bad
            signals[4, 0] = np.nan
            write_dataset(path, signals, "scheme", truth_elements=truth)
            with pytest.raises(DataFormatError, match="voxel 3, measurement 4"):
                read_dataset(path)

    def test_non_finite_truth_names_voxel(self, tmp_path):
        path, signals, truth = self.write_one(tmp_path)
        truth[2, 5] = np.nan
        write_dataset(path, signals, "scheme", truth_elements=truth)
        with pytest.raises(DataFormatError, match="voxel 2, tensor element 5"):
            read_dataset(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_fits(path, np.zeros((3, 7)), "cwlls")
        with pytest.raises(DataFormatError, match="not a dataset"):
            read_dataset(path)


class TestFitsAndPredictions:
    def test_fits_roundtrip(self, tmp_path):
        params = np.random.default_rng(1).normal(size=(4, 7))
        path = tmp_path / "fits.bin"
        write_fits(path, params, "wlls")
        header, back = read_fits(path)
        assert header["estimator"] == "wlls"
        assert np.array_equal(back, params)

    def test_predictions_roundtrip(self, tmp_path):
        table = np.random.default_rng(2).normal(size=(6, len(PREDICTION_COLUMNS)))
        path = tmp_path / "p.bin"
        write_predictions(path, table, "wbs", meta={"iterations": 11})
        header, back = read_predictions(path)
        assert header["method"] == "wbs"
        assert header["meta"]["iterations"] == 11
        assert np.array_equal(back, table)

    def test_wrong_width_rejected(self, tmp_path):
        with pytest.raises(DataFormatError):
            write_predictions(tmp_path / "p.bin", np.zeros((2, 3)), "wbs")
