"""Experiment configuration: one JSON document per experiment.

The frozen dataclasses below are the schema.  Their field names are the
JSON keys, their annotations the types each value is coerced to, and
their defaults the values of the keys a document leaves out; parsing and
serialization are both derived from them.  parse(serialize(cfg)) == cfg
holds by plain equality; sequences are stored as tuples for that reason.
The one schema walk (`_coerce`) checks every value, whether the config
was parsed from JSON or built in Python, and names a bad value by its
path (`stages[0].eta`, `cert_grid.lo`).
"""
from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from typing import Optional, Union, get_args, get_origin, get_type_hints

import numpy as np

from ..noise import NoiseKernel
from ..objectives import Objective, SpikyParams, make_quadratic, make_spiky
from ..optimizer import Stage, StepSchedule

__all__ = [
    "KernelSpec",
    "StageSpec",
    "ObjectiveSpec",
    "GridSpec",
    "TheoremSpec",
    "ExperimentConfig",
    "ConfigError",
]


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _keys(data, spec, where: str) -> dict:
    """`data` as a JSON object whose every key names a field of `spec`."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    names = {f.name for f in fields(spec)}
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {where}")
    return data


def _integer(value, name: str) -> int:
    """An integral int64 value as an int; 2.5, "3" or true are rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        # a bool is an int to operator.index, but JSON true is no count
        value = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if not -(2**63) <= value < 2**63:
        raise ConfigError(f"{name} must fit in int64, got {value}")
    return value


@functools.cache
def _hints(spec) -> dict:
    """The resolved field types of a spec class."""
    return get_type_hints(spec)


def _parse(spec, data, where: str):
    """A `spec` from the JSON object `data` at path `where`, or from a
    `spec` instance as the object of its fields; a missing key takes its
    field's default."""
    if isinstance(data, spec):
        data = vars(data)
    data = _keys(data, spec, where)
    values = {}
    for f in fields(spec):
        if f.name in data:
            path = f"{where}.{f.name}"
            values[f.name] = _coerce(_hints(spec)[f.name], data[f.name], path)
        elif f.default is MISSING:
            raise ConfigError(f"missing key {f.name!r} in {where}")
    return spec(**values)


def _coerce(tp, value, where: str):
    """`value` as the resolved field type `tp`."""
    if is_dataclass(tp):
        return _parse(tp, value, where)
    if tp is int:
        return _integer(value, where)
    if tp is float:
        value = value if isinstance(value, bool) else float(value)  # float(true) is 1.0
        if isinstance(value, bool) or not math.isfinite(value):  # json reads NaN and Infinity
            raise ConfigError(f"{where} must be a finite number, got {value!r}")
        return value
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a JSON array")
        # every tuple field is homogeneous; __post_init__ checks fixed lengths
        return tuple(_coerce(get_args(tp)[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    if get_origin(tp) is Union:  # Optional[X]
        return None if value is None else _coerce(get_args(tp)[0], value, where)
    if not isinstance(value, str):  # the schema's other leaves are str
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "uniform-ball"
    radius: float = 0.0

    def build(self, dimension: int) -> NoiseKernel:
        return NoiseKernel(self.kind, self.radius, dimension)


@dataclass(frozen=True)
class StageSpec:
    eta: float
    steps: int
    kernel: KernelSpec


@dataclass(frozen=True)
class ObjectiveSpec:
    kind: str = "spiky"
    dimension: int = 1
    quad: float = 1.0
    amp: float = 1.0
    freq: float = 10.0
    center: tuple[float, ...] = (0.0,)

    def spiky_params(self) -> SpikyParams:
        if self.kind != "spiky":
            raise ConfigError(f"not a spiky objective: {self.kind}")
        return SpikyParams(self.quad, self.amp, self.freq, self.dimension)

    def build(self) -> Objective:
        if self.kind == "spiky":
            return make_spiky(self.spiky_params())
        if self.kind == "quadratic":
            return make_quadratic(self.dimension, np.asarray(self.center))
        raise ConfigError(f"unknown objective kind {self.kind!r}")


@dataclass(frozen=True)
class GridSpec:
    lo: float = -3.0
    hi: float = 3.0
    count: int = 50

    def points(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class TheoremSpec:
    """Inputs for the theorem-constant computation (c certified elsewhere)."""

    c: float
    eta: float
    L: float
    r: float
    y0_dist2: float
    T2: int


@dataclass(frozen=True)
class ExperimentConfig:
    objective: ObjectiveSpec = ObjectiveSpec()
    stages: tuple[StageSpec, ...] = (
        StageSpec(eta=0.01, steps=2000, kernel=KernelSpec("uniform-ball", 31.4159)),
    )
    n_trials: int = 100
    init_box: tuple[float, float] = (-5.0, 5.0)
    seed: int = 20240
    out_dir: Optional[str] = None
    cert_grid: GridSpec = GridSpec()
    confidence: float = 0.99
    cert_samples: int = 100_000
    noise_levels: tuple[float, ...] = ()
    cluster_tol: float = 0.05
    histogram_bins: int = 40
    theorem: Optional[TheoremSpec] = None

    def __post_init__(self):
        try:
            for f in fields(self):
                value = _coerce(_hints(type(self))[f.name], getattr(self, f.name), f.name)
                object.__setattr__(self, f.name, value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError("confidence must be in (0, 1)")
        if len(self.init_box) != 2 or self.init_box[0] >= self.init_box[1]:
            raise ConfigError("init_box must be a non-empty interval [lo, hi]")
        if len(self.stages) == 0:
            raise ConfigError("at least one stage is required")
        if not self.cluster_tol > 0:
            raise ConfigError("cluster_tol must be > 0")
        if self.histogram_bins < 1:
            raise ConfigError("histogram_bins must be >= 1")
        if self.cert_grid.count < 1:
            raise ConfigError("grid count must be >= 1")
        if self.cert_samples < 2:
            raise ConfigError("cert_samples must be >= 2")
        try:
            self.build_objective()
            self.build_schedule()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            for r in self.noise_levels:
                KernelSpec(self.stages[0].kernel.kind, r).build(self.objective.dimension)
        except ValueError as exc:
            raise ConfigError(f"noise_levels: {exc}") from exc

    # ---- construction helpers ----

    def build_objective(self) -> Objective:
        return self.objective.build()

    def build_schedule(self) -> StepSchedule:
        d = self.objective.dimension
        return StepSchedule(
            tuple(Stage(s.eta, s.steps, s.kernel.build(d)) for s in self.stages)
        )

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        return asdict(self)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        return cls(**_keys(data, cls, "config"))

    @classmethod
    def loads(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_json_dict(data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.loads(fh.read())
