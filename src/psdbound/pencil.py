"""Symmetric matrix pencils A0 + x1*A1 + ... + xn*An and their JSON format.

A pencil defines the spectrahedron S = {x : A0 + sum x_i A_i psd}; an
optional linear projection to R^k turns S into a spectrahedral shadow.
Matrices are dense numpy arrays, symmetrized exactly on construction and
frozen read-only so pencils can be shared across threads.

The interchange format is JSON:

    {"m": int, "n": int, "mats": [[m*m floats] x (n+1)],
     "projection": [[n floats] x k]}        # optional

Symmetry is validated on load with tolerance 1e-12 and then enforced
exactly.  ValueError rejects a negative m or n, an empty (m = 0) matrix,
a NaN or infinite entry, a missing key and a value of the wrong type.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

SYMMETRY_TOL = 1e-12


def symmetrize(mat: np.ndarray) -> np.ndarray:
    """Validate symmetry within ``SYMMETRY_TOL`` and return the exactly
    symmetric part."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("matrix is empty: a pencil needs m >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has a non-finite entry")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return (a + a.T) / 2.0


def json_fields(data, what: str, *keys: str, ints: tuple[str, ...] = ()) -> list:
    """The values of ``keys`` in the JSON object ``data``, else ValueError.

    Each key in ``ints`` must hold a JSON integer: a float, string or bool
    raises ValueError rather than being truncated or coerced.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object, got {type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} has no {key!r}")
    for key in ints:
        if not isinstance(data[key], int) or isinstance(data[key], bool):
            raise ValueError(f"{what} {key!r} must be an integer, got {data[key]!r}")
    return [data[key] for key in keys]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Pencil:
    """Matrices (A0, ..., An) of common size m, plus an optional projection.

    ``mats[0]`` is the constant term; ``mats[1:]`` multiply the coordinates.
    ``projection`` is a dense (k, n) matrix mapping R^n onto the shadow
    space R^k, or None for the identity/no-projection case.
    """

    mats: tuple[np.ndarray, ...]
    projection: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        if len(self.mats) < 1:
            raise ValueError("a pencil needs at least the constant matrix A0")
        mats = tuple(_frozen(symmetrize(a)) for a in self.mats)
        m = mats[0].shape[0]
        for idx, a in enumerate(mats):
            if a.shape != (m, m):
                raise ValueError(f"matrix {idx} has shape {a.shape}, expected {(m, m)}")
        object.__setattr__(self, "mats", mats)
        if self.projection is not None:
            proj = np.asarray(self.projection, dtype=float)
            if proj.ndim != 2 or proj.shape[1] != len(mats) - 1:
                raise ValueError(
                    f"projection must have {len(mats) - 1} columns, got shape {proj.shape}"
                )
            if not np.all(np.isfinite(proj)):
                raise ValueError("projection has a non-finite entry")
            object.__setattr__(self, "projection", _frozen(proj))

    @property
    def m(self) -> int:
        return self.mats[0].shape[0]

    @property
    def n(self) -> int:
        return len(self.mats) - 1

    @property
    def image_dim(self) -> int:
        """Dimension of the projected body (n when there is no projection)."""
        return self.n if self.projection is None else self.projection.shape[0]

    def lift_direction(self, y: np.ndarray) -> np.ndarray:
        """Pull a direction in the image space back to R^n via the adjoint."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.image_dim,):
            raise ValueError(f"direction must have length {self.image_dim}, got {y.shape}")
        return y if self.projection is None else self.projection.T @ y

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "mats": [a.ravel().tolist() for a in self.mats],
        }
        if self.projection is not None:
            out["projection"] = self.projection.tolist()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Pencil":
        m, n, mats = json_fields(data, "pencil JSON", "m", "n", "mats", ints=("m", "n"))
        for key, size in (("m", m), ("n", n)):
            if size < 0:  # m = 0 is refused as an empty matrix
                raise ValueError(f"pencil JSON {key!r} must be non-negative, got {size}")
        try:
            proj = data.get("projection")
            if len(mats) != n + 1:
                raise ValueError(f"expected {n + 1} matrices, got {len(mats)}")
            for flat in mats:
                if len(flat) != m * m:
                    raise ValueError(f"matrix data has {len(flat)} entries, expected {m * m}")
            arrs = tuple(np.asarray(flat, dtype=float).reshape(m, m) for flat in mats)
            proj = None if proj is None else np.asarray(proj, dtype=float)
        except TypeError as exc:  # a number where a list belongs, or the reverse
            raise ValueError(f"pencil JSON has a value of the wrong type: {exc}") from None
        return cls(mats=arrs, projection=proj)


def eval_pencil(pencil: Pencil, x: Sequence[float]) -> np.ndarray:
    """A0 + x1*A1 + ... + xn*An at the point x."""
    xv = np.asarray(x, dtype=float)
    if xv.shape != (pencil.n,):
        raise ValueError(f"point must have length {pencil.n}, got shape {xv.shape}")
    acc = pencil.mats[0].copy()
    for xi, ai in zip(xv, pencil.mats[1:]):
        acc += xi * ai
    return acc


def adjoint(pencil: Pencil, z: np.ndarray) -> np.ndarray:
    """Vector of trace inner products (trace(A1 Z), ..., trace(An Z))."""
    zm = np.asarray(z, dtype=float)
    if zm.shape != (pencil.m, pencil.m):
        raise ValueError(f"matrix must be {pencil.m} x {pencil.m}, got shape {zm.shape}")
    return np.array([float(np.vdot(ai, zm)) for ai in pencil.mats[1:]])


def load_pencil(path: str | Path) -> Pencil:
    with open(path, "r", encoding="utf-8") as fh:
        return Pencil.from_dict(json.load(fh))


def save_pencil(pencil: Pencil, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pencil.to_dict(), fh, indent=2)
        fh.write("\n")
