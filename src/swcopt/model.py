"""Multistage robust LP model: stage dimensions, affine coefficient maps,
per-stage uncertainty supports and scenario paths.

A problem over H stages consists of first-stage data (A, h1, c1), and for
every stage t = 2..H a block of rows

    T^{t-1}(xi) x^{t-1}  +  W^t(xi) x^t   {<=,=,>=}   h^t(xi)

with stage cost c^t(xi)' x^t, where every coefficient depends affinely on
the uncertainty revealed through stage t-1.  Decisions default to
nonnegative; individual variables can be declared free (signed).
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from typing import Iterable, Union

import numpy as np

LE, EQ, GE = "<=", "=", ">="
_SENSES = (LE, EQ, GE)


def _freeze(a, dtype=float) -> np.ndarray:
    """A read-only copy of a, so that no later write to the caller's array
    reaches the model."""
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StageDims:
    """Stage count H with per-stage decision dims n_t and row counts m_t."""

    H: int
    n: tuple[int, ...]
    m: tuple[int, ...]

    def __post_init__(self):
        if self.H < 2:
            raise ValueError(f"need at least two stages, got H={self.H}")
        if len(self.n) != self.H or len(self.m) != self.H:
            raise ValueError("n and m must have one entry per stage")
        if any(nt < 1 for nt in self.n):
            raise ValueError("every stage needs at least one decision variable")
        if any(mt < 0 for mt in self.m):
            raise ValueError("row counts must be nonnegative")


@dataclass(frozen=True)
class AffineMap:
    """Array-valued affine function of a flat uncertainty vector.

    Evaluates to ``base + sum_k xi[idx_k] * term_k``; every term array has
    the base's shape.  Evaluation at the zero vector returns ``base``.
    """

    base: np.ndarray
    terms: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "base", _freeze(self.base))
        frozen = []
        for idx, arr in self.terms:
            arr = _freeze(arr)
            if arr.shape != self.base.shape:
                raise ValueError(
                    f"term for component {idx} has shape {arr.shape}, "
                    f"base has {self.base.shape}"
                )
            if idx < 0:
                raise ValueError("uncertainty component indices are nonnegative")
            frozen.append((int(idx), arr))
        object.__setattr__(self, "terms", tuple(frozen))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.base.shape

    @property
    def max_component(self) -> int:
        """Largest uncertainty index referenced, -1 if constant."""
        return max((idx for idx, _ in self.terms), default=-1)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        out = self.base.copy()
        for idx, arr in self.terms:
            out += xi[idx] * arr
        return out

    def eval_many(self, xis: np.ndarray) -> np.ndarray:
        """Evaluate at K flat vectors at once; returns (K, *shape)."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        out = np.broadcast_to(self.base, (xis.shape[0],) + self.base.shape).copy()
        for idx, arr in self.terms:
            out += xis[:, idx][(...,) + (None,) * self.base.ndim] * arr
        return out


# ---------------------------------------------------------------------------
# uncertainty supports

@dataclass(frozen=True)
class BoxSupport:
    """Interval box nominal*(1 +/- radius) per component, radius in [0,1]."""

    nominal: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "nominal", _freeze(np.atleast_1d(self.nominal)))
        if not 0.0 <= self.radius <= 1.0:
            raise ValueError(f"relative radius must lie in [0,1], got {self.radius}")

    @property
    def dim(self) -> int:
        return self.nominal.shape[0]

    def interval(self) -> tuple[np.ndarray, np.ndarray]:
        half = self.radius * np.abs(self.nominal)
        return self.nominal - half, self.nominal + half

    def vertices(self) -> list[np.ndarray]:
        lo, hi = self.interval()
        per_comp = [sorted({lo[k], hi[k]}) for k in range(self.dim)]
        return [np.array(v) for v in itertools.product(*per_comp)]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        lo, hi = self.interval()
        return rng.uniform(lo, hi, size=(size, self.dim))

    def center(self) -> np.ndarray:
        return self.nominal.copy()

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        lo, hi = self.interval()
        return bool(np.all(x >= lo - tol) and np.all(x <= hi + tol))


@dataclass(frozen=True)
class IntegerBoxSupport:
    """Uniform lattice points of an integer interval, componentwise."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = _freeze(np.atleast_1d(self.lower), int)
        hi = _freeze(np.atleast_1d(self.upper), int)
        if lo.shape != hi.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(lo > hi):
            raise ValueError("integer box needs lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def vertices(self) -> list[np.ndarray]:
        per_comp = [sorted({int(self.lower[k]), int(self.upper[k])}) for k in range(self.dim)]
        return [np.array(v, dtype=float) for v in itertools.product(*per_comp)]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(self.lower, self.upper + 1, size=(size, self.dim)).astype(float)

    def center(self) -> np.ndarray:
        return (self.lower + self.upper) / 2.0

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        ints = np.all(np.abs(x - np.round(x)) <= tol)
        return bool(ints and np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True)
class DiscreteSupport:
    """Finite list of support points, sampled uniformly."""

    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("discrete support needs at least one point")
        pts = tuple(_freeze(np.atleast_1d(v)) for v in self.values)
        if len({p.shape for p in pts}) != 1:
            raise ValueError("discrete support points must share a dimension")
        object.__setattr__(self, "values", pts)

    @property
    def dim(self) -> int:
        return self.values[0].shape[0]

    def vertices(self) -> list[np.ndarray]:
        return [v.copy() for v in self.values]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        picks = rng.integers(0, len(self.values), size=size)
        return np.stack(self.values)[picks]

    def center(self) -> np.ndarray:
        return np.mean(np.stack(self.values), axis=0)

    def contains(self, x: np.ndarray, tol: float = 1e-9) -> bool:
        return any(np.max(np.abs(x - v)) <= tol for v in self.values)


Support = Union[BoxSupport, IntegerBoxSupport, DiscreteSupport]


@dataclass(frozen=True)
class UncertaintySet:
    """Per-stage supports for the H-1 uncertainty stages."""

    stages: tuple[Support, ...]

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def dim(self, t: int) -> int:
        return self._stage(t).dim

    def _stage(self, t: int) -> Support:
        if not 1 <= t <= self.n_stages:
            raise ValueError(f"uncertainty stage {t} out of range 1..{self.n_stages}")
        return self.stages[t - 1]

    def vertices(self, t: int) -> list[np.ndarray]:
        return self._stage(t).vertices()

    def nominal(self, t: int) -> np.ndarray:
        return self._stage(t).center()

    def sample_stage(self, t: int, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._stage(t).sample(rng, size)

    def contains(self, path: "ScenarioPath", tol: float = 1e-9) -> bool:
        return all(
            self._stage(t).contains(np.asarray(path.stages[t - 1]), tol)
            for t in range(1, self.n_stages + 1)
        )


def stage_vertices(uncertainty: UncertaintySet, t: int) -> list[np.ndarray]:
    """Extreme points of the stage-t support (the value list for a discrete one)."""
    return uncertainty.vertices(t)


# ---------------------------------------------------------------------------
# scenario paths

@dataclass(frozen=True)
class ScenarioPath:
    """One realization (xi^1, ..., xi^{H-1}) as one tuple per stage (a row of a ScenarioPaths)."""

    stages: tuple[tuple[float, ...], ...]

    @classmethod
    def of(cls, values: Iterable) -> "ScenarioPath":
        return cls(tuple(tuple(float(v) for v in np.atleast_1d(stage)) for stage in values))

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    def prefix(self, t: int) -> tuple[tuple[float, ...], ...]:
        return self.stages[:t]

    def flat(self, through_stage: int | None = None) -> np.ndarray:
        return np.array([v for stage in self.stages[:through_stage] for v in stage], dtype=float)


@dataclass(frozen=True, eq=False)
class ScenarioPaths:
    """N scenario paths as one read-only (N, D) float64 array: row i is
    path i, its stage-t values in the next widths[t-1] columns.  An int
    index gives a ScenarioPath view, a slice gives a ScenarioPaths.  The
    array is a read-only view, not a copy (a validation batch can hold
    millions of paths), so the caller's array stays writeable."""

    values: np.ndarray
    widths: tuple[int, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.values.ndim != 2 or self.values.shape[1] != sum(self.widths):
            raise ValueError(f"path array of shape {self.values.shape} "
                             f"does not fit stage widths {self.widths}")

    @classmethod
    def of(cls, paths) -> "ScenarioPaths":
        """Stack a sequence of ScenarioPath; a ScenarioPaths is returned as is."""
        if isinstance(paths, ScenarioPaths):
            return paths
        stages = [p.stages for p in paths]
        if not stages:
            raise ValueError("need at least one path")
        widths = tuple(map(len, stages[0]))
        if any(tuple(map(len, s)) != widths for s in stages):
            raise ValueError("all paths must have the same stage count and stage dimensions")
        return cls(np.array([[v for st in s for v in st] for s in stages], float), widths)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ScenarioPaths(self.values[i], self.widths)
        return next(iter(ScenarioPaths(self.values[operator.index(i)][None], self.widths)))

    def __iter__(self):
        cuts = list(itertools.pairwise(itertools.accumulate(self.widths, initial=0)))
        for row in self.values.tolist():
            yield ScenarioPath(tuple([tuple(row[a:b]) for a, b in cuts]))

    def __eq__(self, other):
        return (isinstance(other, ScenarioPaths) and self.widths == other.widths
                and np.array_equal(self.values, other.values))


# ---------------------------------------------------------------------------
# the model

@dataclass(frozen=True)
class StageBlock:
    """Coefficient maps and row senses for one stage t >= 2."""

    T: AffineMap
    W: AffineMap
    h: AffineMap
    c: AffineMap
    senses: tuple[str, ...]


@dataclass(frozen=True)
class MultistageRobustLP:
    """The model, immutable: its coefficient arrays are read-only copies.

    pools holds the basis pools of its per-path LPs, filled by pricing
    (swcopt.builders) and kept for the life of the object, so that every
    later pricing call on the problem starts from the bases earlier calls
    found.  They are not part of the model: a pickled or copied problem
    carries none, so a --jobs task starts cold."""

    dims: StageDims
    A: np.ndarray
    h1: np.ndarray
    c1: np.ndarray
    senses1: tuple[str, ...]
    stages: tuple[StageBlock, ...]
    uncertainty: UncertaintySet
    nonneg: tuple[tuple[bool, ...], ...] = ()
    var_names: tuple[tuple[str, ...], ...] | None = None
    pools: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "pools": {}}

    def __post_init__(self):
        object.__setattr__(self, "A", _freeze(self.A))
        object.__setattr__(self, "h1", _freeze(self.h1))
        object.__setattr__(self, "c1", _freeze(self.c1))
        if not self.nonneg:
            object.__setattr__(
                self, "nonneg", tuple(tuple(True for _ in range(nt)) for nt in self.dims.n)
            )

    @property
    def H(self) -> int:
        return self.dims.H

    def stage_block(self, t: int) -> StageBlock:
        if not 2 <= t <= self.H:
            raise ValueError(f"stage {t} out of range 2..{self.H}")
        return self.stages[t - 2]

    def xi_dim_through(self, t: int) -> int:
        """Flat uncertainty dimension revealed before stage t decisions."""
        return sum(self.uncertainty.dim(s) for s in range(1, t))


def evaluate_coefficients(
    problem: MultistageRobustLP, path: ScenarioPath, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Realized (T, W, h, c) for stage t along the path's prefix through t-1."""
    blk = problem.stage_block(t)
    if path.n_stages < t - 1:
        raise ValueError(f"path has {path.n_stages} stages, stage {t} needs {t - 1}")
    xi = path.flat(t - 1)
    need = problem.xi_dim_through(t)
    if xi.shape[0] < need:
        raise ValueError(f"prefix through stage {t - 1} has {xi.shape[0]} components, model expects {need}")
    return blk.T(xi), blk.W(xi), blk.h(xi), blk.c(xi)


def validate(problem: MultistageRobustLP) -> list[str]:
    """Exhaustive shape and data-nonanticipativity check.

    Returns a list of human-readable violations; empty means well-formed.
    """
    errs: list[str] = []
    d = problem.dims
    if problem.A.shape != (d.m[0], d.n[0]):
        errs.append(f"stage 1: A has shape {problem.A.shape}, expected {(d.m[0], d.n[0])}")
    if problem.h1.shape != (d.m[0],):
        errs.append(f"stage 1: h1 has shape {problem.h1.shape}, expected ({d.m[0]},)")
    if problem.c1.shape != (d.n[0],):
        errs.append(f"stage 1: c1 has shape {problem.c1.shape}, expected ({d.n[0]},)")
    if len(problem.senses1) != d.m[0]:
        errs.append(f"stage 1: {len(problem.senses1)} senses for {d.m[0]} rows")
    if len(problem.stages) != d.H - 1:
        errs.append(f"{len(problem.stages)} stage blocks for H={d.H}")
        return errs
    if problem.uncertainty.n_stages != d.H - 1:
        errs.append(
            f"uncertainty covers {problem.uncertainty.n_stages} stages, expected {d.H - 1}"
        )
    for t in range(2, d.H + 1):
        blk = problem.stage_block(t)
        mt, nt, np_ = d.m[t - 1], d.n[t - 1], d.n[t - 2]
        for name, amap, want in (
            ("T", blk.T, (mt, np_)),
            ("W", blk.W, (mt, nt)),
            ("h", blk.h, (mt,)),
            ("c", blk.c, (nt,)),
        ):
            if amap.shape != want:
                errs.append(f"stage {t}: {name} has shape {amap.shape}, expected {want}")
            revealed = problem.xi_dim_through(t)
            if amap.max_component >= revealed:
                errs.append(
                    f"stage {t}: {name} depends on uncertainty component "
                    f"{amap.max_component}, but only {revealed} are revealed by stage {t - 1} "
                    "(coefficient data must be nonanticipative)"
                )
        if len(blk.senses) != mt:
            errs.append(f"stage {t}: {len(blk.senses)} senses for {mt} rows")
        for s in blk.senses:
            if s not in _SENSES:
                errs.append(f"stage {t}: unknown row sense {s!r}")
    for t, flags in enumerate(problem.nonneg, start=1):
        if len(flags) != d.n[t - 1]:
            errs.append(f"stage {t}: {len(flags)} sign flags for {d.n[t - 1]} variables")
    return errs
