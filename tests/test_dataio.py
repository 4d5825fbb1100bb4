import json
import warnings

import numpy as np
import pytest

from dticalib.dataio import (
    DataFormatError,
    FIELDS,
    PREDICTION_COLUMNS,
    read_bvec_bval,
    read_dataset,
    read_dataset_truth,
    read_fits,
    read_predictions,
    write_bvec_bval,
    write_dataset,
    write_fits,
    write_predictions,
)
from dticalib.mlp import MlpSpec, TwoBranchMlp, load_checkpoint, save_checkpoint
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

    @pytest.mark.parametrize("bvec_rows, bval_row, name, message", [
        (["0 1", "0 0", "0 0"], "0 nan", "bval", "bvalues must be finite"),
        (["0 1", "0 0", "0 0"], "0 -1000", "bval", "bvalues must be nonnegative"),
        (["0 nan", "0 0", "0 0"], "0 1000", "bvec", "directions must be finite"),
        (["0 -inf", "0 0", "0 0"], "0 1000", "bvec", "directions must be finite"),
        (["0 0", "0 0", "0 0"], "0 1000", "bvec", "zero direction with b>0 at column 1"),
        (["0 1", "0 0"], "0 1000", "bvec", "expected 3 row(s), got 2"),
        (["0 1", "0 0", "0 0"], "0 1000\n0 1000", "bval", "expected 1 row(s), got 2"),
    ])
    def test_refusal_names_its_file(self, tmp_path, bvec_rows, bval_row, name, message):
        bvec, bval = self.write_pair(tmp_path, bvec_rows, bval_row)
        with pytest.raises(DataFormatError) as info:
            read_bvec_bval(bvec, bval)
        assert str(info.value) == f"{tmp_path / ('g.' + name)}: {message}"

    def test_roundtrip_identical(self, tmp_path):
        scheme = make_scheme(30, bvalue=987.5, n_b0=2)
        write_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval", scheme)
        back = read_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval")
        assert np.allclose(back.directions, scheme.directions, atol=1e-12)
        assert np.allclose(back.bvalues, scheme.bvalues, atol=1e-12)

    @pytest.mark.parametrize("n_directions", [6, 30, 64])
    def test_roundtrip_keeps_every_bit(self, tmp_path, n_directions):
        # make_scheme(30)'s direction 24 has a norm one ulp off 1; dividing
        # it by that norm moved its last bit
        scheme = make_scheme(n_directions, n_b0=2)
        write_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval", scheme)
        back = read_bvec_bval(tmp_path / "s.bvec", tmp_path / "s.bval")
        assert np.array_equal(back.directions, scheme.directions)
        assert np.array_equal(back.bvalues, scheme.bvalues)

    def test_renormalizes_small_stray_silently(self, tmp_path):
        bvec, bval = self.write_pair(tmp_path, ["1.0001", "0", "0"], "1000")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scheme = read_bvec_bval(bvec, bval)
        assert np.array_equal(scheme.directions[0], [1.0, 0.0, 0.0])


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
        header, s, t, scheme = read_dataset(path)
        assert header["seed"] == 3 and header["n_voxels"] == 5
        assert np.array_equal(s, signals)
        assert np.array_equal(t, truth)
        assert header["has_s0"] is False
        assert len(scheme) == 12

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

    def test_truth_of_wrong_shape_rejected(self, tmp_path):
        path, signals, truth = self.write_one(tmp_path)
        with pytest.raises(DataFormatError, match=r"^truth block must be \(n_voxels, 6\)$"):
            write_dataset(path, signals, "scheme", truth_elements=truth[:, :3])

    def test_scheme_of_other_length_rejected(self, tmp_path):
        path, _, _ = self.write_one(tmp_path)
        write_bvec_bval(tmp_path / "scheme.bvec", tmp_path / "scheme.bval", make_scheme(11))
        with pytest.raises(DataFormatError) as info:
            read_dataset(path)
        assert str(info.value) == f"{path}: scheme length disagrees with header"

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_fits(path, np.zeros((3, 7)), "cwlls")
        with pytest.raises(DataFormatError, match="not a dataset"):
            read_dataset(path)

    def test_truth_read_skips_the_signals(self, tmp_path):
        path, signals, truth = self.write_one(tmp_path)
        signals[3, 4] = np.nan  # checked only where signals are read
        write_dataset(path, signals, "scheme", truth_elements=truth, seed=3)
        header, t, scheme = read_dataset_truth(path)
        assert header["seed"] == 3 and header["n_voxels"] == 5
        assert np.array_equal(t, truth) and len(scheme) == 12
        path, _, _ = self.write_one(tmp_path, with_truth=False)
        assert read_dataset_truth(path)[1] is None

    def test_truth_read_checks_sizes_and_truth(self, tmp_path):
        path, signals, truth = self.write_one(tmp_path)
        raw = path.read_bytes()
        for edited, message in ((raw[:-8], "truncated block"), (raw + b"\x00", "trailing bytes")):
            path.write_bytes(edited)
            with pytest.raises(DataFormatError, match=message):
                read_dataset_truth(path)
        truth[2, 5] = np.nan
        write_dataset(path, signals, "scheme", truth_elements=truth)
        with pytest.raises(DataFormatError, match="voxel 2, tensor element 5"):
            read_dataset_truth(path)


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

    def test_other_column_set_rejected(self, tmp_path):
        path = predictions_file(tmp_path)
        rewrite_header(path, lambda h: h.update(columns=h["columns"][::-1]))
        with pytest.raises(DataFormatError) as info:
            read_predictions(path)
        assert str(info.value) == f"{path}: unexpected column set"


def rewrite_header(path, edit):
    """Apply edit to the JSON header line of a binary file, keeping its blocks."""
    head, rest = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    edit(header)
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + rest)


def dataset_file(tmp_path):
    scheme = make_scheme(10)
    write_bvec_bval(tmp_path / "scheme.bvec", tmp_path / "scheme.bval", scheme)
    path = tmp_path / "d.bin"
    write_dataset(path, np.ones((3, len(scheme))), "scheme", truth_elements=np.zeros((3, 6)))
    return path


def fits_file(tmp_path):
    write_fits(tmp_path / "f.bin", np.zeros((3, 7)), "cwlls")
    return tmp_path / "f.bin"


def predictions_file(tmp_path):
    write_predictions(tmp_path / "p.bin", np.zeros((3, len(PREDICTION_COLUMNS))), "wbs")
    return tmp_path / "p.bin"


def checkpoint_file(tmp_path):
    model = TwoBranchMlp(MlpSpec(input_dim=12, hidden_widths=(4,), uncertainty_widths=(3,)))
    save_checkpoint(tmp_path / "m.bin", model)
    return tmp_path / "m.bin"


# kind: (writer of a valid file, its reader, the header fields that reader uses)
KINDS = {
    "dataset": (dataset_file, read_dataset, ("n_voxels", "m", "has_ground_truth", "scheme_ref")),
    "fits": (fits_file, read_fits, ("n_voxels",)),
    "predictions": (predictions_file, read_predictions, ("n_voxels", "columns", "method")),
    "mlp_checkpoint": (checkpoint_file, load_checkpoint, ("n_parameters", "spec", "seed")),
}

# each field a reader uses, with values of another JSON type than its own
WRONG_TYPES = {
    "version": ("1", True),
    "n_voxels": ("40", True, 40.0),
    "m": ("12", False),
    "has_ground_truth": (1, "true"),
    "scheme_ref": (7, None),
    "columns": ("fa_hat",),
    "method": (["wbs"],),
    "n_parameters": ("100", True),
    "spec": ([12],),
    "seed": (1.5, None, [1, 2], True),
}


class TestHeaderContract:
    @pytest.mark.parametrize("kind, change", [
        (kind, change)
        for kind, (_, _, fields) in KINDS.items()
        for change in ("other kind", "version 2", "version", *fields,
                       *(f"{f} = -40" for f in fields if FIELDS[kind][f] is int))
    ])
    def test_refusal_names_path(self, tmp_path, kind, change):
        write, read, fields = KINDS[kind]
        path = write(tmp_path)
        read(path)
        other = "fits" if kind == "dataset" else "dataset"
        edits = {
            "other kind": lambda h: h.update(kind=other),
            "version 2": lambda h: h.update(version=2),
            # every int field is a block size or a seed
            **{f"{f} = -40": lambda h, f=f: h.update({f: -40}) for f in fields},
        }
        rewrite_header(path, edits.get(change, lambda h: h.pop(change)))
        with pytest.raises(DataFormatError) as info:
            read(path)
        expected = {
            "other kind": f"{path}: not a {kind} file (kind {other!r})",
            "version 2": f"{path}: unsupported {kind} version 2",
            **{f"{f} = -40": f"{path}: {kind} header field {f} = -40 must be >= 0" for f in fields},
        }
        assert str(info.value) == expected.get(change, f"{path}: {kind} header lacks {change}")

    @pytest.mark.parametrize("kind, field, value", [
        (kind, field, value)
        for kind, (_, _, fields) in KINDS.items()
        for field in ("version", *fields)
        for value in WRONG_TYPES[field]
    ])
    def test_wrong_field_type_names_path_and_field(self, tmp_path, kind, field, value):
        write, read, _ = KINDS[kind]
        path = write(tmp_path)
        rewrite_header(path, lambda h: h.update({field: value}))
        with pytest.raises(DataFormatError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}: {kind} header field {field} = {value!r} is not")

    def test_checkpoint_spec_that_disagrees_with_its_blocks_names_both_counts(self, tmp_path):
        path = checkpoint_file(tmp_path)
        saved = TwoBranchMlp(MlpSpec(input_dim=12, hidden_widths=(4,), uncertainty_widths=(3,)))
        edited = TwoBranchMlp(MlpSpec(input_dim=12, hidden_widths=(6,), uncertainty_widths=(3,)))
        rewrite_header(path, lambda h: h["spec"].update(hidden_widths=[6]))
        with pytest.raises(DataFormatError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            f"{path}: mlp_checkpoint header n_parameters = {saved.flat.size}, "
            f"but its spec has {edited.flat.size}"
        )

    @pytest.mark.parametrize("spec", [
        {"bogus": 1},  # a key MlpSpec does not know
        {"dropout_rate": 1.5},
        {"hidden_widths": 4},
    ])
    def test_checkpoint_spec_refused_names_path(self, tmp_path, spec):
        path = checkpoint_file(tmp_path)
        rewrite_header(path, lambda h: h["spec"].update(spec))
        with pytest.raises(DataFormatError, match="spec refused") as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: mlp_checkpoint spec refused: ")

    @pytest.mark.parametrize("size", [10**15, 10**30])
    @pytest.mark.parametrize("kind", KINDS)
    def test_size_beyond_the_file_is_refused_before_allocating(self, tmp_path, kind, size):
        # the first field each reader uses is its block size; 10**30 overflows int64
        write, read, fields = KINDS[kind]
        path = write(tmp_path)
        rewrite_header(path, lambda h: h.update({fields[0]: size}))
        with pytest.raises(DataFormatError) as info:
            read(path)
        assert str(info.value) == f"{path}: truncated block"

    def test_every_missing_field_is_named(self, tmp_path):
        path = tmp_path / "p.bin"
        path.write_bytes(b'{"kind": "predictions"}\n')
        with pytest.raises(DataFormatError, match="lacks version, n_voxels, columns, method$"):
            read_predictions(path)

    def test_header_lines_are_pinned(self, tmp_path):
        write_fits(tmp_path / "f.bin", np.zeros((2, 7)), "cwlls")
        write_predictions(tmp_path / "p.bin", np.zeros((2, 9)), "wbs", meta={"iterations": 11})
        assert (tmp_path / "f.bin").read_bytes().split(b"\n", 1)[0] == (
            b'{"estimator": "cwlls", "kind": "fits", "n_voxels": 2, "version": 1}'
        )
        assert (tmp_path / "p.bin").read_bytes().split(b"\n", 1)[0] == (
            b'{"columns": ["fa_hat", "md_hat", "v1x", "v1y", "v1z", "theta95", "sigma_fa", '
            b'"sigma_md", "aleatoric_u"], "kind": "predictions", "meta": {"iterations": 11}, '
            b'"method": "wbs", "n_voxels": 2, "version": 1}'
        )
        path = dataset_file(tmp_path)
        assert path.read_bytes().split(b"\n", 1)[0] == (
            b'{"has_ground_truth": true, "has_s0": false, "kind": "dataset", "m": 12, '
            b'"n_voxels": 3, "scheme_ref": "scheme", "seed": 0, "version": 1}'
        )
