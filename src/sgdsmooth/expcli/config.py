"""Experiment configuration: one JSON document per experiment.

Every spec below is a frozen dataclass so that parse(serialize(cfg)) ==
cfg holds by plain equality; sequences are stored as tuples for the same
reason.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, fields
from typing import Optional

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
    """An integral number as an int; 2.5 or "3" are rejected, not truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


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


def _stage_spec(data, where: str) -> StageSpec:
    data = _keys(data, StageSpec, where)
    kernel = _keys(data["kernel"], KernelSpec, where + ".kernel")
    return StageSpec(
        eta=float(data["eta"]),
        steps=_integer(data["steps"], where + " steps"),
        kernel=KernelSpec(
            kind=kernel.get("kind", "uniform-ball"),
            radius=float(kernel.get("radius", 0.0)),
        ),
    )


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

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "count", _integer(self.count, "cert_grid count"))
        if self.count < 1:
            raise ConfigError("grid count must be >= 1")

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
        if self.cert_samples < 2:
            raise ConfigError("cert_samples must be >= 2")
        try:
            self.build_objective()
            self.build_schedule()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        try:
            levels = tuple(float(r) for r in self.noise_levels)
            for r in levels:
                KernelSpec(self.stages[0].kernel.kind, r).build(self.objective.dimension)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"noise_levels: {exc}") from exc
        object.__setattr__(self, "noise_levels", levels)

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
        return {
            "objective": {
                "kind": self.objective.kind,
                "dimension": self.objective.dimension,
                "quad": self.objective.quad,
                "amp": self.objective.amp,
                "freq": self.objective.freq,
                "center": list(self.objective.center),
            },
            "stages": [
                {
                    "eta": s.eta,
                    "steps": s.steps,
                    "kernel": {"kind": s.kernel.kind, "radius": s.kernel.radius},
                }
                for s in self.stages
            ],
            "n_trials": self.n_trials,
            "init_box": list(self.init_box),
            "seed": self.seed,
            "out_dir": self.out_dir,
            "cert_grid": {
                "lo": self.cert_grid.lo,
                "hi": self.cert_grid.hi,
                "count": self.cert_grid.count,
            },
            "confidence": self.confidence,
            "cert_samples": self.cert_samples,
            "noise_levels": list(self.noise_levels),
            "cluster_tol": self.cluster_tol,
            "histogram_bins": self.histogram_bins,
            "theorem": None
            if self.theorem is None
            else {
                "c": self.theorem.c,
                "eta": self.theorem.eta,
                "L": self.theorem.L,
                "r": self.theorem.r,
                "y0_dist2": self.theorem.y0_dist2,
                "T2": self.theorem.T2,
            },
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExperimentConfig":
        try:
            data = _keys(data, cls, "config")
            obj = _keys(data.get("objective", {}), ObjectiveSpec, "objective")
            theorem = data.get("theorem")
            if theorem is not None:
                theorem = _keys(theorem, TheoremSpec, "theorem")
            return cls(
                objective=ObjectiveSpec(
                    kind=obj.get("kind", "spiky"),
                    dimension=_integer(obj.get("dimension", 1), "dimension"),
                    quad=float(obj.get("quad", 1.0)),
                    amp=float(obj.get("amp", 1.0)),
                    freq=float(obj.get("freq", 10.0)),
                    center=tuple(obj.get("center", (0.0,))),
                ),
                stages=tuple(
                    _stage_spec(s, f"stages[{i}]") for i, s in enumerate(data.get("stages", []))
                ),
                n_trials=_integer(data.get("n_trials", 100), "n_trials"),
                init_box=tuple(float(v) for v in data.get("init_box", (-5.0, 5.0))),
                seed=_integer(data.get("seed", 20240), "seed"),
                out_dir=data.get("out_dir"),
                cert_grid=GridSpec(**_keys(data.get("cert_grid", {}), GridSpec, "cert_grid")),
                confidence=float(data.get("confidence", 0.99)),
                cert_samples=_integer(data.get("cert_samples", 100_000), "cert_samples"),
                noise_levels=tuple(data.get("noise_levels", ())),
                cluster_tol=float(data.get("cluster_tol", 0.05)),
                histogram_bins=_integer(data.get("histogram_bins", 40), "histogram_bins"),
                theorem=None if theorem is None else TheoremSpec(
                    c=float(theorem["c"]),
                    eta=float(theorem["eta"]),
                    L=float(theorem["L"]),
                    r=float(theorem["r"]),
                    y0_dist2=float(theorem["y0_dist2"]),
                    T2=_integer(theorem["T2"], "theorem T2"),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad experiment config: {exc}") from exc

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
