"""Plain-text run configuration: named sections of key = value pairs.

Unknown sections or keys are hard errors: a silently ignored typo corrupts an
experiment.  Parsing is strict about types and reports the offending
section/key on failure.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .propagator import DispersionParams
from .solver import SolverConfig
from .spectral import GridSpec, RealField2D

__all__ = ["ConfigError", "InitialData", "DiagnosticsPlan", "RunConfig", "load_config"]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "grid": {"nx", "ny", "lx", "ly"},
    "dispersion": {"a"},
    "solver": {"dt", "t", "integrator", "dealias", "nonlinear"},
    "initial": {
        "family",
        "amplitude",
        "sigma_x",
        "sigma_y",
        "center_x",
        "center_y",
        "x_mean_removed",
        "kx",
        "ky",
        "path",
    },
    "diagnostics": {"stride", "r1", "r2", "n_ladder", "sobolev_s"},
    "output": {"directory", "snapshot_stride"},
}


@dataclass(frozen=True)
class InitialData:
    family: str
    amplitude: float = 1.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    center_x: float = 0.0
    center_y: float = 0.0
    x_mean_removed: bool = False
    kx: int = 1
    ky: int = 0
    path: str = ""

    def build(self, grid: GridSpec) -> RealField2D:
        X, Y = grid.meshgrid()
        if self.family == "gaussian":
            env = self.amplitude * np.exp(
                -((X - self.center_x) ** 2) / self.sigma_x**2
                - ((Y - self.center_y) ** 2) / self.sigma_y**2
            )
            if self.x_mean_removed:
                # odd Hermite factor: the x-average vanishes for every y
                # while the Gaussian decay is retained
                env = env * (X - self.center_x) / self.sigma_x
            return RealField2D(grid, env)
        if self.family == "single_mode":
            wx = 2.0 * np.pi * self.kx / grid.lx
            wy = 2.0 * np.pi * self.ky / grid.ly
            return RealField2D(grid, self.amplitude * np.cos(wx * X + wy * Y))
        if self.family == "file":
            from .snapshot import read_snapshot

            snap = read_snapshot(self.path)
            if snap.field.grid != grid:
                raise ConfigError(
                    f"snapshot grid {snap.field.grid} does not match [grid] section"
                )
            return snap.field
        raise ConfigError(f"unknown initial-data family {self.family!r}")


@dataclass(frozen=True)
class DiagnosticsPlan:
    stride: int = 100
    r1: float = 2.0
    r2: float = 2.0
    n_ladder: tuple[float, ...] = (2.0, 4.0, 8.0)
    sobolev_s: float = 1.0

    def __post_init__(self) -> None:
        if not np.all(np.isfinite((self.r1, self.r2, self.sobolev_s))):
            raise ValueError("diagnostics r1, r2 and sobolev_s must be finite")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: DispersionParams
    solver: SolverConfig
    initial: InitialData
    diagnostics: DiagnosticsPlan
    output_dir: str
    snapshot_stride: int = 0

    def to_dict(self) -> dict:
        return {
            "grid": {
                "nx": self.grid.nx,
                "ny": self.grid.ny,
                "lx": self.grid.lx,
                "ly": self.grid.ly,
            },
            "dispersion": {"a": self.params.a},
            "solver": {
                "dt": self.solver.dt,
                "T": self.solver.T,
                "integrator": self.solver.integrator,
                "dealias": self.solver.dealias,
                "nonlinear": self.solver.nonlinear,
            },
            "initial": {
                "family": self.initial.family,
                "amplitude": self.initial.amplitude,
                "sigma_x": self.initial.sigma_x,
                "sigma_y": self.initial.sigma_y,
                "center_x": self.initial.center_x,
                "center_y": self.initial.center_y,
                "x_mean_removed": self.initial.x_mean_removed,
                "kx": self.initial.kx,
                "ky": self.initial.ky,
                "path": self.initial.path,
            },
            "diagnostics": {
                "stride": self.diagnostics.stride,
                "r1": self.diagnostics.r1,
                "r2": self.diagnostics.r2,
                "n_ladder": list(self.diagnostics.n_ladder),
                "sobolev_s": self.diagnostics.sobolev_s,
            },
            "output": {
                "directory": self.output_dir,
                "snapshot_stride": self.snapshot_stride,
            },
        }


def _get(parser, section, key, conv, default=None, required=False):
    try:
        if not parser.has_option(section, key):
            if required:
                raise ConfigError(f"[{section}] missing required key '{key}'")
            return default
        raw = parser.get(section, key)
        if conv is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "on", "1"):
                return True
            if low in ("false", "no", "off", "0"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return conv(raw)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"[{section}] key '{key}': {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key '{key}' in section [{section}]")
    for required in ("grid", "dispersion", "solver", "initial", "output"):
        if not parser.has_section(required):
            raise ConfigError(f"{path}: missing section [{required}]")

    try:
        grid = GridSpec(
            nx=_get(parser, "grid", "nx", int, required=True),
            ny=_get(parser, "grid", "ny", int, required=True),
            lx=_get(parser, "grid", "lx", float, required=True),
            ly=_get(parser, "grid", "ly", float, required=True),
        )
        params = DispersionParams(_get(parser, "dispersion", "a", float, required=True))
        solver = SolverConfig(
            dt=_get(parser, "solver", "dt", float, required=True),
            T=_get(parser, "solver", "t", float, required=True),
            params=params,
            dealias=_get(parser, "solver", "dealias", bool, default=True),
            integrator=_get(parser, "solver", "integrator", str, default="etdrk4"),
            nonlinear=_get(parser, "solver", "nonlinear", bool, default=True),
        )
        initial = InitialData(
            family=_get(parser, "initial", "family", str, required=True),
            amplitude=_get(parser, "initial", "amplitude", float, default=1.0),
            sigma_x=_get(parser, "initial", "sigma_x", float, default=1.0),
            sigma_y=_get(parser, "initial", "sigma_y", float, default=1.0),
            center_x=_get(parser, "initial", "center_x", float, default=0.0),
            center_y=_get(parser, "initial", "center_y", float, default=0.0),
            x_mean_removed=_get(parser, "initial", "x_mean_removed", bool, default=False),
            kx=_get(parser, "initial", "kx", int, default=1),
            ky=_get(parser, "initial", "ky", int, default=0),
            path=_get(parser, "initial", "path", str, default=""),
        )
        ladder_raw = _get(parser, "diagnostics", "n_ladder", str, default="2,4,8")
        ladder = tuple(float(tok) for tok in ladder_raw.split(",") if tok.strip())
        diagnostics = DiagnosticsPlan(
            stride=_get(parser, "diagnostics", "stride", int, default=100),
            r1=_get(parser, "diagnostics", "r1", float, default=2.0),
            r2=_get(parser, "diagnostics", "r2", float, default=2.0),
            n_ladder=ladder,
            sobolev_s=_get(parser, "diagnostics", "sobolev_s", float, default=1.0),
        )
        return RunConfig(
            grid=grid,
            params=params,
            solver=solver,
            initial=initial,
            diagnostics=diagnostics,
            output_dir=_get(parser, "output", "directory", str, required=True),
            snapshot_stride=_get(parser, "output", "snapshot_stride", int, default=0),
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc
