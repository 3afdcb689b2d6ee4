"""Experiment configuration: one JSON document per experiment.

Every spec below is a frozen dataclass so that parse(serialize(cfg)) ==
cfg holds by plain equality; sequences are stored as tuples for the same
reason.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
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
        if self.count < 1:
            raise ConfigError("grid count must be >= 1")
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
            obj = data.get("objective", {})
            theorem = data.get("theorem")
            return cls(
                objective=ObjectiveSpec(
                    kind=obj.get("kind", "spiky"),
                    dimension=int(obj.get("dimension", 1)),
                    quad=float(obj.get("quad", 1.0)),
                    amp=float(obj.get("amp", 1.0)),
                    freq=float(obj.get("freq", 10.0)),
                    center=tuple(obj.get("center", (0.0,))),
                ),
                stages=tuple(
                    StageSpec(
                        eta=float(s["eta"]),
                        steps=int(s["steps"]),
                        kernel=KernelSpec(
                            kind=s["kernel"].get("kind", "uniform-ball"),
                            radius=float(s["kernel"].get("radius", 0.0)),
                        ),
                    )
                    for s in data.get("stages", [])
                ),
                n_trials=int(data.get("n_trials", 100)),
                init_box=tuple(data.get("init_box", (-5.0, 5.0))),
                seed=int(data.get("seed", 20240)),
                out_dir=data.get("out_dir"),
                cert_grid=GridSpec(**data.get("cert_grid", {})),
                confidence=float(data.get("confidence", 0.99)),
                cert_samples=int(data.get("cert_samples", 100_000)),
                noise_levels=tuple(data.get("noise_levels", ())),
                cluster_tol=float(data.get("cluster_tol", 0.05)),
                histogram_bins=int(data.get("histogram_bins", 40)),
                theorem=None if theorem is None else TheoremSpec(
                    c=float(theorem["c"]),
                    eta=float(theorem["eta"]),
                    L=float(theorem["L"]),
                    r=float(theorem["r"]),
                    y0_dist2=float(theorem["y0_dist2"]),
                    T2=int(theorem["T2"]),
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
