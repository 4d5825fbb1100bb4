import importlib.util
import sys
from pathlib import Path

import pytest

from dticalib import dataio, mlp, pipeline, simulation
from dticalib.config import SCHEMA, ConfigError, ExperimentConfig, Range, parse_config_text
from dticalib.simulation import PhantomSpec, make_scheme

ROOT = Path(__file__).resolve().parents[1]


TEXT = """
# comment line
seed = 7
out_dir = runs/demo
phantom.md = 0.9e-3
phantom.snr_db = inf
metrics.mpiw_cap.fa = 0.2   # trailing comment
train.hidden_widths = 64, 64, 32
"""


class TestParser:
    def test_scalars_and_nesting(self, tmp_path):
        entries = parse_config_text(TEXT + "flag = true\n")
        assert entries["metrics.mpiw_cap.fa"] == ("0.2", 7)  # raw text and line number
        assert entries["flag"] == ("true", 9)  # syntax only: no key is checked here
        path = tmp_path / "e.cfg"
        path.write_text(TEXT)
        cfg = ExperimentConfig.load(path)
        assert cfg.get("seed") == 7
        assert cfg.get("out_dir") == (tmp_path / "runs/demo").resolve()
        assert cfg.get("phantom.md") == pytest.approx(0.9e-3)
        assert cfg.get("phantom.snr_db") == float("inf")
        assert cfg.get("metrics.mpiw_cap.fa") == 0.2
        assert cfg.get("train.hidden_widths") == (64, 64, 32)

    @pytest.mark.parametrize("text, message", [
        ("just words\n", "line 1: expected 'key = value'"),
        ("seed = 1\n = 3\n", "line 2: empty key"),
    ])
    def test_line_without_a_key_rejected(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value) == message


class TestExperimentConfig:
    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("seed = 1\nout_dir = run\nbootstrap.iterations = 10\n")
        cfg = ExperimentConfig.load(path, {"seed": 9, "bootstrap.iterations": 25})
        assert cfg.seed == 9
        assert cfg.get("bootstrap.iterations") == 25
        assert "override" in cfg.text  # hashed into the manifest

    def test_none_override_ignored(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("seed = 4\nout_dir = run\n")
        cfg = ExperimentConfig.load(path, {"seed": None})
        assert cfg.seed == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.load(tmp_path / "absent.cfg")

    def test_required_key(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("seed = 4\n")
        cfg = ExperimentConfig.load(path)
        with pytest.raises(ConfigError, match="out_dir"):
            _ = cfg.out_dir

    def test_out_dir_relative_to_config(self, tmp_path):
        sub = tmp_path / "cfgs"
        sub.mkdir()
        path = sub / "e.cfg"
        path.write_text("out_dir = ../runs/x\n")
        cfg = ExperimentConfig.load(path)
        assert cfg.out_dir == (tmp_path / "runs/x").resolve()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("out_dir = run\nbootstrap.iteration = 3\n")
        with pytest.raises(ConfigError, match="line 2: bootstrap.iteration is not a known key"):
            ExperimentConfig.load(path)
        path.write_text("out_dir = run\n")
        with pytest.raises(ConfigError, match="override: bootstrap.iteration is not a known key"):
            ExperimentConfig.load(path, {"bootstrap.iteration": 3})

    def test_defaults_are_typed_and_paths_resolve(self, tmp_path):
        path = tmp_path / "e.cfg"
        path.write_text("out_dir = run\nphantom.snr_db = 28\ntrain.hidden_widths = 64\n")
        cfg = ExperimentConfig.load(path)
        assert cfg.get("phantom.snr_db") == 28.0  # an int where a float is expected
        assert cfg.get("train.hidden_widths") == (64,)  # a scalar for a tuple
        assert cfg.get("bootstrap.iterations") == 1000
        assert cfg.get("dataset.path") == (tmp_path / "run/dataset.bin").resolve()
        assert cfg.get("evaluate.recalibrated") is None
        assert cfg.seed == 0
        assert "bootstrap" not in cfg.text  # defaults never enter the hashed text


def _load_module(relpath: str):
    path = ROOT / relpath
    spec = importlib.util.spec_from_file_location(f"_config_source_{path.stem}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


class TestRepoConfigs:
    """Every config the repository writes loads against SCHEMA."""

    def check_loads(self, path: Path, text: str):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        cfg = ExperimentConfig.load(path)
        assert set(cfg.values) == set(parse_config_text(text))
        assert cfg.text == text

    def test_test_and_script_configs(self, tmp_path):
        texts = [_load_module("tests/test_cli.py").BASE.format(snr=snr) for snr in ("30", "28", "inf")]
        texts.append(_load_module("tests/test_acceptance.py").CLI_CONFIG)
        demo = _load_module("scripts/run_recalibration_demo.py").CONFIG
        texts.append(demo.format(out="run", seed=7, voxels=400, snr=28.0, iterations=500))
        for i, text in enumerate(texts):
            self.check_loads(tmp_path / f"c{i}.cfg", text)

    @pytest.mark.parametrize("size", ["full", "tiny"])
    def test_perfbench_workload_configs(self, tmp_path, monkeypatch, size):
        workloads = _load_module("perfbench/workloads.py")
        # only the config file is under test; skip calib_large's data files
        monkeypatch.setattr(workloads, "write_calibration_inputs", lambda *args: None)
        for name in workloads.NAMES:
            directory = tmp_path / name
            workloads.prepare_inputs(workloads.workload(name, size), 0, directory)
            path = directory / workloads.CONFIG_NAME
            self.check_loads(path, path.read_text())


def _default_cell(entry) -> str:
    if entry.default is None:
        return "unset"
    if entry.kind == "path":
        return f"`out_dir/{entry.default}`"
    if isinstance(entry.default, tuple):
        return ", ".join(str(v) for v in entry.default)
    return str(entry.default)


def schema_table() -> str:
    rows = ["| key | type | default | allowed |", "|---|---|---|---|"]
    for key, entry in SCHEMA.items():
        allowed = entry.allowed if isinstance(entry.allowed, Range) else ", ".join(entry.allowed)
        rows.append(f"| `{key}` | {entry.kind} | {_default_cell(entry)} | {allowed} |")
    return "\n".join(rows)


def test_readme_config_table_matches_schema():
    readme = (ROOT / "README.md").read_text()
    begin, end = "<!-- config keys -->\n", "\n<!-- end config keys -->"
    assert begin in readme and end in readme, "README lacks the config key table markers"
    table = readme.split(begin, 1)[1].split(end, 1)[0]
    expected = schema_table()
    assert table == expected, f"README config table differs from SCHEMA; expected:\n{expected}"


class TestSectionsReachTheirClasses:
    """Every phantom.* and train.* key reaches the field its stage builds, by name."""

    # a value per key that differs from its default and that the class accepts
    PHANTOM = {
        "n_voxels": 9, "generator": "random_spd", "fa_target": 0.5, "md": 1.1e-3,
        "eig_min": 0.2e-3, "eig_max": 2.5e-3, "shift": 1.5, "orientation": "fixed",
        "snr_db": 25.0,
    }
    TRAIN = {
        "hidden_widths": (8, 4), "uncertainty_widths": (5,), "dropout_rate": 0.25,
        "penalty": 0.5, "learning_rate": 2e-3, "batch_size": 16, "epochs": 3,
        "val_fraction": 0.2, "eval_every": 2, "stop_patience": 4,
    }

    @staticmethod
    def config(tmp_path, section: str, values: dict) -> ExperimentConfig:
        lines = ["out_dir = run", "seed = 5", "scheme.n_directions = 12"]
        for name, value in values.items():
            text = ", ".join(map(str, value)) if isinstance(value, tuple) else value
            lines.append(f"{section}.{name} = {text}")
        path = tmp_path / f"{section}.cfg"
        path.write_text("\n".join(lines) + "\n")
        return ExperimentConfig.load(path)

    def test_values_cover_every_key_and_differ_from_defaults(self):
        keys = {f"phantom.{n}": v for n, v in self.PHANTOM.items()}
        keys.update({f"train.{n}": v for n, v in self.TRAIN.items()})
        assert set(keys) == {k for k in SCHEMA if k.startswith(("phantom.", "train."))}
        assert all(value != SCHEMA[key].default for key, value in keys.items())

    def test_phantom_keys(self, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(simulation, "make_phantom", specs.append)
        pipeline.run_simulate(self.config(tmp_path, "phantom", self.PHANTOM))
        (spec,) = specs
        got = {name: getattr(spec, name) for name in self.PHANTOM if not name.startswith("eig_")}
        got["eig_min"], got["eig_max"] = spec.eig_range
        assert got == self.PHANTOM and spec.seed == 5

    def test_train_keys(self, tmp_path, monkeypatch):
        made = simulation.make_phantom(PhantomSpec(n_voxels=4, scheme=make_scheme(12), seed=1))
        (tmp_path / "run").mkdir()
        dataio.write_bvec_bval(tmp_path / "run/scheme.bvec", tmp_path / "run/scheme.bval",
                               make_scheme(12))
        dataio.write_dataset(tmp_path / "run/dataset.bin", made.signals, "scheme", made.truth)

        class Built(Exception):
            pass

        def train(inputs, targets, spec, cfg):
            raise Built(spec, cfg)

        monkeypatch.setattr(mlp, "train", train)
        with pytest.raises(Built) as built:
            pipeline.run_train(self.config(tmp_path, "train", self.TRAIN))
        spec, cfg = built.value.args
        got = {name: getattr(spec if hasattr(spec, name) else cfg, name) for name in self.TRAIN}
        assert got == self.TRAIN
        assert spec.input_dim == 14 and cfg.seed == 5
