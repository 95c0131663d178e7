"""Point sets on a line and the vertex bookkeeping shared by every module.

Everything in this package speaks in zero-based vertex indices into one
sorted coordinate array. Coordinates only matter through their order and
pairwise gaps, so this module stays small: a validated array wrapper,
failure-set helpers, and the two plain-text file formats (one coordinate
per line for points, a comma-separated index list for failures).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


class EmptyInput(ValueError):
    """A point source yielded no coordinates."""


class DuplicateCoordinate(ValueError):
    """Two input coordinates compare exactly equal."""


class IndexOutOfRange(ValueError):
    """A vertex index falls outside [0, n)."""


@dataclass(frozen=True, eq=False)
class PointSet:
    """Strictly increasing finite coordinates of n >= 1 points on the real line.

    The constructor expects coordinates already sorted; use
    :func:`make_point_set` to sort arbitrary input and reject duplicates.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise EmptyInput("a point set needs at least one coordinate")
        if not np.isfinite(arr).all():
            raise ValueError("coordinates must be finite, not NaN or infinite")
        # in Python floats, so an overflow reads inf without a numpy warning;
        # a finite span bounds every gap and every monotone path length
        if not math.isfinite(float(arr.max()) - float(arr.min())):
            raise ValueError("coordinates must span a finite range")
        gaps = np.diff(arr)
        if np.any(gaps == 0.0):
            raise DuplicateCoordinate("coordinates must be pairwise distinct")
        if np.any(gaps < 0.0):
            raise ValueError("coordinates must be sorted increasingly")
        arr.flags.writeable = False
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return int(self.coords.size)

    def __eq__(self, other) -> bool:
        return isinstance(other, PointSet) and np.array_equal(self.coords, other.coords)

    def __hash__(self) -> int:
        return hash(self.coords.tobytes())

    def __repr__(self) -> str:
        return f"PointSet(n={self.n})"


def make_point_set(coords: Iterable[float]) -> PointSet:
    """Sort ``coords`` and wrap them; duplicates and empty input are errors."""
    return PointSet(np.sort(np.asarray(list(coords), dtype=np.float64)))


def check_vertex(n: int, v: int) -> int:
    if not 0 <= v < n:
        raise IndexOutOfRange(f"vertex {v} outside [0, {n})")
    return v


def failure_indices(members: Iterable[int], n: int) -> np.ndarray:
    """Validate a failure set as one int64 index array, repeated members kept.

    An int64 array is used as it is; any other iterable goes through
    ``np.fromiter``, each member read by ``operator.index``, so a member that
    is not an integer, a float or a string say, is a ValueError, never truncated.
    """
    own = isinstance(members, np.ndarray) and members.dtype == np.int64
    try:
        idx = members if own else np.fromiter(map(operator.index, members), dtype=np.int64)
    except (OverflowError, TypeError):  # past int64 or not an integer: look for it in members
        idx, stray = members, True
    else:
        # under uint64 a negative index wraps past n, so one max checks both ends
        stray = idx.size and idx.view(np.uint64).max() >= n
    if stray:
        for v in idx:
            if not hasattr(v, "__index__"):
                raise ValueError(f"vertex index {v!r} is not an integer")
            check_vertex(n, operator.index(v))
        # an iterator read up
        raise IndexOutOfRange(f"a vertex index outside [0, {n}) or not an integer")
    return idx


def check_failures(members: Iterable[int], n: int) -> frozenset:
    """Validate a failure set against a point count and freeze it."""
    return frozenset(failure_indices(members, n).tolist())


def parse_points(text: str) -> PointSet:
    """Parse one decimal coordinate per line; ``#`` starts a comment."""
    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            values.append(float(line))
    return make_point_set(values)


def load_points(path: str | Path) -> PointSet:
    return parse_points(Path(path).read_text())


def parse_failures(text: str, n: int) -> frozenset:
    """Parse a comma-separated list of zero-based vertex indices."""
    stripped = text.split("#", 1)[0].strip()
    if not stripped:
        return frozenset()
    return check_failures([int(tok) for tok in stripped.split(",")], n)


def load_failures(path: str | Path, n: int) -> frozenset:
    return parse_failures(Path(path).read_text(), n)


def write_points(ps: PointSet, path: str | Path) -> None:
    """One coordinate per line, at round-trip precision."""
    lines = [format(float(c), ".17g") for c in ps.coords]
    Path(path).write_text("\n".join(lines) + "\n")
