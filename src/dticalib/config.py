"""Experiment configuration: one `dotted.key = value` per line, '#' comments.

Example::

    out_dir = runs/demo
    seed = 7
    phantom.generator = prolate
    phantom.n_voxels = 200
    scheme.n_directions = 30
    bootstrap.iterations = 1000
    train.hidden_widths = 64, 64, 32

SCHEMA declares every key once: its type, its default, and the values it
allows, except where the library class a stage builds before it writes
checks them (phantom.* and train.*). ExperimentConfig.load checks the
file and the CLI overrides against it, so an unknown key, a value of the wrong
type, or one outside the allowed values is a ConfigError that names the key
and its line (or "override") before any stage runs. When a key is set twice,
the last line wins. Path values resolve against the config file's directory;
a path default names a file in out_dir.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path

from .bootstrap import MIN_REPLICATES, wild_bootstrap
from .calibration import DEFAULT_BINS, DEFAULT_GRID_SIZE, MPIW_CAPS
from .mlp import MlpSpec, TrainConfig, predict_mc_dropout
from .simulation import PhantomSpec, make_scheme


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Range:
    """Numbers x with low < x < high, or low <= x < high when closed."""

    low: float
    high: float = float("inf")
    closed: bool = False

    def __contains__(self, x) -> bool:
        return (self.low <= x if self.closed else self.low < x) and x < self.high

    def __str__(self) -> str:
        return f"{'[' if self.closed else '('}{self.low}, {self.high})"


@dataclass(frozen=True)
class Key:
    kind: str  # a name in PARSERS
    default: object = None  # None: unset
    allowed: object = ()  # a tuple of the accepted values or a Range; empty accepts any


PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "path": str,  # resolved by ExperimentConfig.get
    "int-tuple": lambda raw: tuple(int(tok) for tok in raw.split(",")),
}


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


SCHEMA = {
    "out_dir": Key("path"),
    "seed": Key("int", PhantomSpec.seed, Range(0, closed=True)),
    "scheme.bvec": Key("path"),
    "scheme.bval": Key("path"),
    # the single-shell design has full rank only with 7+ directions and a b=0 row
    "scheme.n_directions": Key("int", None, Range(7, closed=True)),
    "scheme.bvalue": Key("float", _default(make_scheme, "bvalue"), Range(0)),
    "scheme.n_b0": Key("int", _default(make_scheme, "n_b0"), Range(2, closed=True)),
    "phantom.n_voxels": Key("int"),
    "phantom.generator": Key("str", PhantomSpec.generator),
    "phantom.fa_target": Key("float", PhantomSpec.fa_target),
    "phantom.md": Key("float", PhantomSpec.md),
    "phantom.eig_min": Key("float", PhantomSpec.eig_range[0]),
    "phantom.eig_max": Key("float", PhantomSpec.eig_range[1]),
    "phantom.shift": Key("float", PhantomSpec.shift),
    "phantom.orientation": Key("str", PhantomSpec.orientation),
    "phantom.snr_db": Key("float", PhantomSpec.snr_db),
    "dataset.path": Key("path", "dataset.bin"),
    "fit.estimator": Key("str", "cwlls", ("ols", "wlls", "cwlls")),
    "bootstrap.iterations": Key(
        "int", _default(wild_bootstrap, "iterations"), Range(MIN_REPLICATES, closed=True)
    ),
    "train.hidden_widths": Key("int-tuple", MlpSpec.hidden_widths),
    "train.uncertainty_widths": Key("int-tuple", MlpSpec.uncertainty_widths),
    "train.dropout_rate": Key("float", MlpSpec.dropout_rate),
    "train.penalty": Key("float", TrainConfig.penalty),
    "train.learning_rate": Key("float", TrainConfig.learning_rate),
    "train.batch_size": Key("int", TrainConfig.batch_size),
    "train.epochs": Key("int", TrainConfig.epochs),
    "train.val_fraction": Key("float", TrainConfig.val_fraction),
    "train.eval_every": Key("int", TrainConfig.eval_every),
    "train.stop_patience": Key("int", TrainConfig.stop_patience),
    "predict.model": Key("path", "model.bin"),
    "predict.samples": Key(
        "int", _default(predict_mc_dropout, "n_samples"), Range(MIN_REPLICATES, closed=True)
    ),
    "calibrate.predictions": Key("path", "predictions_wbs.bin"),
    "calibrate.split": Key("float", 0.5, Range(0, 1)),
    "evaluate.predictions": Key("path", "predictions_wbs.bin"),
    "evaluate.recalibrated": Key("path"),
    "evaluate.uncertainty": Key("str", "epistemic", ("epistemic", "aleatoric")),
    "curves.predictions": Key("path", "predictions_wbs.bin"),
    "metrics.bins": Key("int", DEFAULT_BINS, Range(1, closed=True)),
    "metrics.grid_size": Key("int", DEFAULT_GRID_SIZE, Range(2, closed=True)),
    **{f"metrics.mpiw_cap.{p}": Key("float", cap, Range(0)) for p, cap in MPIW_CAPS.items()},
}


def parse_config_text(text: str) -> dict:
    """{dotted key: (raw value, line number)} from `key = value` lines.

    Checks syntax only; '#' starts a comment and the last line setting a key wins.
    """
    entries = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        entries[key] = (raw, lineno)
    return entries


def _typed(key: str, raw: str, where: str):
    """raw as the SCHEMA type of key, checked against its allowed values."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: {key} is not a known key")
    entry = SCHEMA[key]
    try:
        value = PARSERS[entry.kind](raw)
    except ValueError:
        raise ConfigError(f"{where}: {key} = {raw} is not of type {entry.kind}") from None
    if entry.allowed and value not in entry.allowed:
        raise ConfigError(f"{where}: {key} = {raw} is not in {entry.allowed}")
    return value


@dataclass
class ExperimentConfig:
    """Typed values the file and overrides set; text (without defaults) feeds the manifest."""

    values: dict  # dotted key -> typed value
    text: str
    path: Path
    sources: dict  # dotted key -> "line N" or "override"

    @classmethod
    def load(cls, path, overrides: dict = None) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text()
        entries = {key: (raw, f"line {n}") for key, (raw, n) in parse_config_text(text).items()}
        for key, val in (overrides or {}).items():
            if val is not None:
                entries[key] = (str(val), "override")
                text += f"\n# override\n{key} = {val}\n"
        values = {key: _typed(key, raw, where) for key, (raw, where) in entries.items()}
        return cls(values, text, path, {key: where for key, (_, where) in entries.items()})

    def get(self, key: str, required: bool = False):
        """The typed value of key, or its default; a path comes back absolute."""
        value = self.values.get(key, SCHEMA[key].default)
        if value is None and required:
            raise ConfigError(f"missing config key: {key}")
        if value is None or SCHEMA[key].kind != "path":
            return value
        base = self.path.parent if key in self.values else self.out_dir
        return (base / value).resolve()

    @property
    def seed(self) -> int:
        return self.get("seed")

    @property
    def out_dir(self) -> Path:
        return self.get("out_dir", required=True)
