"""Binary snapshot files: magic "GBZK", fixed little-endian layout.

Header: magic (4 bytes), version u32, nx u32, ny u32, then lx, ly, a, t as
IEEE-754 binary64; payload is the ny*nx sample array, row-major (y outer).
Write-then-read is the identity, bit for bit.  ``read_snapshot`` raises
``SnapshotFormatError`` for a wrong magic, version or size, a grid or samples
``RealField2D`` rejects, a non-finite t or an a outside [0, 1].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import GridSpec, RealField2D

__all__ = ["SnapshotFile", "SnapshotFormatError", "write_snapshot", "read_snapshot"]

MAGIC = b"GBZK"
VERSION = 1
_HEADER = struct.Struct("<4sIII4d")  # magic, version, nx, ny, lx, ly, a, t


class SnapshotFormatError(ValueError):
    pass


@dataclass
class SnapshotFile:
    field: RealField2D
    a: float
    t: float


def write_snapshot(path: str | Path, snap: SnapshotFile) -> None:
    g = snap.field.grid
    header = _HEADER.pack(MAGIC, VERSION, g.nx, g.ny, g.lx, g.ly, snap.a, snap.t)
    payload = np.ascontiguousarray(snap.field.samples, dtype="<f8").tobytes()
    Path(path).write_bytes(header + payload)


def read_snapshot(path: str | Path) -> SnapshotFile:
    return _parse_snapshot(Path(path).read_bytes(), path)


def _parse_snapshot(raw: bytes, path: str | Path) -> SnapshotFile:
    """The snapshot in ``raw``, the bytes of the file ``path`` names."""
    if len(raw) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header")
    magic, version, nx, ny, lx, ly, a, t = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    if not math.isfinite(t):
        raise SnapshotFormatError(f"{path}: time t must be finite, got {t}")
    if not 0.0 <= a <= 1.0:
        raise SnapshotFormatError(f"{path}: dispersion exponent a must lie in [0, 1], got {a}")
    expected = _HEADER.size + nx * ny * 8
    if len(raw) != expected:
        raise SnapshotFormatError(
            f"{path}: truncated payload ({len(raw)} bytes, expected {expected})"
        )
    samples = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(ny, nx)
    try:
        field = RealField2D(GridSpec(nx=nx, ny=ny, lx=lx, ly=ly), samples.copy())
    except ValueError as exc:  # a bad grid header or non-finite samples
        raise SnapshotFormatError(f"{path}: {exc}") from None
    return SnapshotFile(field, a=a, t=t)
