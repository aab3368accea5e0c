"""Plain-text run configuration and Stein batches: INI sections of key = value pairs.

One reader serves both.  A section's keys are the fields of its dataclass, so
each key's name, type and default are stated once; ``_SCHEMA``, the parser
and ``RunConfig.to_dict`` derive from the ``_SECTIONS`` table.  Unknown
sections or keys are hard errors (a silently ignored typo corrupts an
experiment), and every failure is a ``ConfigError`` naming the section/key.
"""

from __future__ import annotations

import configparser
from dataclasses import MISSING, Field, dataclass, fields
from pathlib import Path

import numpy as np

from .propagator import DispersionParams
from .snapshot import read_snapshot
from .solver import SolverConfig
from .spectral import GridSpec, RealField2D

__all__ = ["ConfigError", "InitialData", "DiagnosticsPlan", "RunConfig", "load_config",
           "read_ini", "read_section"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class InitialData:
    family: str  # gaussian | single_mode | file
    amplitude: float = 1.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    center_x: float = 0.0
    center_y: float = 0.0
    x_mean_removed: bool = False
    kx: int = 1
    ky: int = 0
    path: str = ""

    def __post_init__(self) -> None:
        if self.family not in ("gaussian", "single_mode", "file"):
            raise ValueError(f"unknown initial-data family {self.family!r}")
        if not np.all(np.isfinite((self.amplitude, self.center_x, self.center_y))):
            raise ValueError("amplitude, center_x and center_y must be finite")
        if not all(0 < s * s < np.inf for s in (self.sigma_x, self.sigma_y)):
            raise ValueError("sigma_x and sigma_y must have a finite nonzero square")

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
        try:
            snap = read_snapshot(self.path)
        except OSError as exc:
            raise ConfigError(f"[initial] path {self.path!r}: {exc.strerror or exc}") from exc
        if snap.field.grid != grid:
            raise ConfigError(f"snapshot grid {snap.field.grid} does not match [grid] section")
        return snap.field


def _ladder_tag(N: float) -> str:
    """Column tag of an n_ladder level: the integer, else 6 significant digits."""
    return str(int(N)) if float(N).is_integer() else ("%g" % N)


@dataclass(frozen=True)
class DiagnosticsPlan:
    stride: int = 100
    r1: float = 2.0
    r2: float = 2.0
    n_ladder: tuple[float, ...] = (2.0, 4.0, 8.0)
    sobolev_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.stride >= 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        # 2 s is the y-order of E^s and bounds its x-order (1 + a) s
        if not np.all(np.isfinite((self.r1, self.r2, 2.0 * self.sobolev_s))):
            raise ValueError("diagnostics r1, r2 and 2 sobolev_s must be finite")
        if not all(N >= 1 for N in self.n_ladder):
            raise ValueError(f"every n_ladder level must be >= 1, got {self.n_ladder}")
        # each level names its own diagnostics column
        tags = [_ladder_tag(N) for N in self.n_ladder]
        if len(set(tags)) != len(tags):
            raise ValueError(
                f"n_ladder levels must name distinct columns, got {self.n_ladder} "
                f"(column tags {', '.join(tags)})"
            )


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: DispersionParams
    solver: SolverConfig
    initial: InitialData
    diagnostics: DiagnosticsPlan
    output_dir: str
    snapshot_stride: int = 0

    def __post_init__(self) -> None:
        if not self.snapshot_stride >= 0:
            raise ValueError(f"snapshot_stride must be >= 0, got {self.snapshot_stride}")
        # the solver squares unit-amplitude samples scaled by dx dy, multiplies
        # by xi / (dx dy) and squares the ETDRK4 phase dt w; at the largest
        # |xi| and |eta| these must be finite, and (dx dy)^2 must not underflow
        g = self.grid
        xi, eta = np.float64(np.pi * g.nx / g.lx), np.float64(np.pi * g.ny / g.ly)
        with np.errstate(over="ignore", under="ignore"):
            cell = np.float64(g.dx * g.dy)
            phase = self.solver.dt * (xi * eta**2 + xi ** (2.0 + self.params.a))
            grid_ok = 0.0 < cell * cell < np.inf and xi / cell < np.inf
            if not (grid_ok and phase * phase < np.inf):
                # a check across sections: the message names the ones at fault.
                # dt is at fault only when the grid alone is in range; a lies
                # in [0, 1], so [dispersion] never is
                culprits = "[grid] [solver]" if grid_ok else "[grid]"
                raise ConfigError(f"{culprits} grid {g.nx}x{g.ny} on a {g.lx:g} x {g.ly:g} box with dt = "
                                 f"{self.solver.dt:g} is out of float range (dx dy = {cell:.3g})")

    def to_dict(self) -> dict:
        """Config echo for the manifest: every key of every section."""
        echo = {}
        for section, (attr, _) in _SECTIONS.items():
            obj = getattr(self, attr) if attr else self
            echo[section] = {
                _ECHO.get(f.name, f.name): getattr(obj, f.name)
                for f in _SCHEMA[section].values()
            }
        return echo


# section -> (RunConfig field, dataclass).  [output] holds RunConfig's own
# keys and comes last; a field named after another section's RunConfig field
# (SolverConfig.params) is filled from that section, not read as a key.
_SECTIONS = {
    "grid": ("grid", GridSpec),
    "dispersion": ("params", DispersionParams),
    "solver": ("solver", SolverConfig),
    "initial": ("initial", InitialData),
    "diagnostics": ("diagnostics", DiagnosticsPlan),
    "output": (None, RunConfig),
}
_ECHO = {"output_dir": "directory"}  # key names that differ from the field name


def _keys(cls, filled) -> dict[str, Field]:
    """INI key -> field, for every field of ``cls`` a file sets."""
    return {_ECHO.get(f.name, f.name).lower(): f for f in fields(cls) if f.name not in filled}


_SCHEMA = {
    section: _keys(cls, {attr for attr, _ in _SECTIONS.values()})
    for section, (_, cls) in _SECTIONS.items()
}


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


# field annotation -> parser of the raw string
_PARSE = {
    "int": int,
    "float": float,
    "float | None": float,
    "str": str,
    "bool": _bool,
    "tuple[float, ...]": lambda raw: tuple(float(tok) for tok in raw.split(",") if tok.strip()),
}


def read_ini(path: str | Path) -> configparser.ConfigParser:
    """Parse an INI file; an unreadable or malformed file is a ConfigError."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(Path(path).read_text(), source=str(path))
    except (OSError, ValueError, configparser.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parser


def read_section(parser: configparser.ConfigParser, section: str, cls, path, **filled):
    """Build ``cls`` from the ``filled`` fields plus one key of ``section`` per other field.

    A key is parsed by its field's annotation; a key left out keeps the default.
    A ``ConfigError`` from ``cls`` itself (a check across sections) names its
    own sections; any other failure of ``cls`` is reported under ``section``.
    """
    keys = _keys(cls, filled)
    where = f"{path}: [{section}]"
    try:
        raw = dict(parser.items(section)) if parser.has_section(section) else {}
    except configparser.Error as exc:
        raise ConfigError(f"{where} {exc}") from exc
    unknown = sorted(raw.keys() - keys.keys())
    if unknown:
        raise ConfigError(f"{where} unknown keys {unknown}")
    kwargs = {}
    for key, f in keys.items():
        if key in raw:
            try:
                kwargs[f.name] = _PARSE[f.type](raw[key])
            except ValueError as exc:
                raise ConfigError(f"{where} key '{key}': {exc}") from exc
        elif f.default is MISSING:
            raise ConfigError(f"{where} missing required key '{key}'")
    try:
        return cls(**filled, **kwargs)
    except ConfigError as exc:
        # a check across sections names the sections at fault itself
        raise ConfigError(f"{path}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where} {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    parser = read_ini(path)
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
    built = {}
    for section, (attr, cls) in _SECTIONS.items():
        filled = {f.name: built[f.name] for f in fields(cls) if f.name in built}
        built[attr] = read_section(parser, section, cls, path, **filled)
    return built[None]
