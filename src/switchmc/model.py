"""Problem specification: dimensions, coefficient matrices, mode set, time grid.

A problem instance is a linear signal/observation pair

    dX_t = F X_t dt + C dW_t        (hidden signal, dim n1; W of dim m1)
    dY_t = G X_t dt + dU_t          (observation, dim n2; U of dim n2)

together with a finite set of operating modes, each carrying a running payoff
f_i(x, y, t), and a (d, d) matrix of switching costs c(i, j), constant in
time.  Everything here is a plain immutable value object; the solver modules
consume them read-only.
"""

from __future__ import annotations

import json
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "TimeGrid",
    "ModelSpec",
    "PayoffSpec",
    "ModeSet",
    "ValidationReport",
    "payoff_from_registry",
    "as_payoff",
    "validate",
    "switch_count_bound",
    "load_problem",
]

# Tolerance used for symmetry / PSD / triangle-inequality checks.
_CHECK_ATOL = 1e-10


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_N = T with spacing delta = T/N."""

    T: float
    n_steps: int

    def __post_init__(self) -> None:
        if not 0 < self.T < np.inf:
            raise ValueError(f"horizon must be positive and finite, got T={self.T}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")

    @property
    def delta(self) -> float:
        return self.T / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_steps + 1)


def _as_array(name: str, value, shape: tuple) -> np.ndarray:
    """Coerce ``value`` to a float array of ``shape``; a scalar stands for an
    array of one entry.  Anything else is a ValueError naming ``name``."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):  # a ragged list, a word
        raise ValueError(f"{name}: expected numbers, got {value!r}") from None
    if arr.ndim == 0 and np.prod(shape) == 1:
        arr = arr.reshape(shape)
    if arr.shape != shape:
        raise ValueError(f"{name}: expected shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Signal/observation model with constant coefficients.

    F (n1, n1), C (n1, m1) and G (n2, n1) are stored as matrices; a scalar
    stands for a 1x1 matrix.  The observation noise U is a standard Brownian
    motion of dimension n2.
    """

    n1: int
    m1: int
    n2: int
    T: float
    n_steps: int
    F: np.ndarray
    C: np.ndarray
    G: np.ndarray
    m0: np.ndarray
    theta0: np.ndarray
    y0: np.ndarray

    def __post_init__(self) -> None:
        for dim_name in ("n1", "m1", "n2"):
            if getattr(self, dim_name) < 1:
                raise ValueError(f"{dim_name} must be >= 1, got {getattr(self, dim_name)}")
        if self.m1 > self.n1:
            raise ValueError(f"m1 must be <= n1, got m1={self.m1}, n1={self.n1}")
        TimeGrid(self.T, self.n_steps)  # checks the horizon and the step count
        n1, m1, n2 = self.n1, self.m1, self.n2
        shapes = {"F": (n1, n1), "C": (n1, m1), "G": (n2, n1),
                  "m0": (n1,), "y0": (n2,), "theta0": (n1, n1)}
        for name, shape in shapes.items():
            object.__setattr__(self, name, _as_array(name, getattr(self, name), shape))

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(T=self.T, n_steps=self.n_steps)


@dataclass(frozen=True, eq=False)
class PayoffSpec:
    """A running payoff f(x, y, t), vectorized over leading axes of x and y.

    ``fn`` takes x of shape (..., n1), y of shape (..., n2) and a scalar t and
    returns an array of shape (...).  ``name`` identifies registry payoffs so
    closed-form checks can recognize them; programmatic payoffs use name
    "custom".
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray, float], np.ndarray]

    def __call__(self, x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        return self.fn(x, y, t)

    @property
    def is_affine(self) -> bool:
        """Affine in x (every registry payoff), so a Gaussian average is the value at the mean."""
        return self.name in ("zero", "linear", "affine")


def payoff_from_registry(name: str, **params: float) -> PayoffSpec:
    """Built-in payoffs: ``zero``, ``linear`` (first signal coordinate), and
    ``affine`` (a * first signal coordinate + b)."""
    if name in ("zero", "linear") and params:
        raise ValueError(f"payoff '{name}' takes no parameters, got {params}")
    if name == "zero":
        return PayoffSpec("zero", lambda x, y, t: np.zeros(np.shape(x)[:-1]))
    if name == "linear":
        return PayoffSpec("linear", lambda x, y, t: np.asarray(x)[..., 0])
    if name == "affine":
        unknown = set(params) - {"a", "b"}
        if unknown:
            raise ValueError(f"payoff 'affine' takes parameters a, b; got extras {unknown}")
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.0))
        return PayoffSpec("affine", lambda x, y, t: a * np.asarray(x)[..., 0] + b)
    raise ValueError(f"unknown payoff '{name}' (registry: zero, linear, affine)")


def as_payoff(obj) -> PayoffSpec:
    """Coerce a registry name, a ``{"name": ..., **params}`` mapping, a
    callable, or a PayoffSpec."""
    if isinstance(obj, PayoffSpec):
        return obj
    if isinstance(obj, str):
        return payoff_from_registry(obj)
    if isinstance(obj, Mapping):
        params = dict(obj)
        if "name" not in params:
            raise ValueError(f"payoff mapping needs a 'name' key, got {obj}")
        return payoff_from_registry(str(params.pop("name")), **params)
    if callable(obj):
        return PayoffSpec("custom", obj)
    raise ValueError(f"cannot interpret payoff {obj!r}")


@dataclass(frozen=True, eq=False)
class ModeSet:
    """d operating modes: payoffs f_i(x, y, t) and switching costs.

    ``costs`` is a (d, d) matrix, constant in time: costs[i, j] is the cost
    of switching from mode i to mode j.  It is stored as a read-only float
    copy, and ``nu`` (the floor of the off-diagonal costs) as a float.
    """

    payoffs: tuple
    costs: np.ndarray
    nu: float

    def __post_init__(self) -> None:
        payoffs = tuple(as_payoff(p) for p in self.payoffs)
        if not payoffs:
            raise ValueError("ModeSet needs at least one mode")
        object.__setattr__(self, "payoffs", payoffs)
        try:
            costs = np.array(self.costs, dtype=float)
        except (TypeError, ValueError):  # a callable, a string, a ragged list
            costs = np.empty(0)
        if costs.shape != (self.d, self.d):
            raise ValueError(f"costs must be a ({self.d}, {self.d}) matrix of numbers, got {self.costs!r}")
        costs.flags.writeable = False
        object.__setattr__(self, "costs", costs)
        try:
            object.__setattr__(self, "nu", float(self.nu))
        except (TypeError, ValueError):  # None, a word, a list
            raise ValueError(f"nu must be a number, got {self.nu!r}") from None

    @property
    def d(self) -> int:
        return len(self.payoffs)


@dataclass
class ValidationReport:
    """Outcome of ``validate``: empty ``violations`` means pass."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "pass"
        return "\n".join(f"violation: {v}" for v in self.violations)


def validate(model: ModelSpec, modes: ModeSet, grid: TimeGrid) -> ValidationReport:
    """Check every structural assumption; report violations, never raise.

    Of the cost checks (finite, zero diagonal, off-diagonal >= nu, triangle
    inequality) only the first that fails is reported."""
    report = ValidationReport()
    add = report.violations.append

    if abs(grid.T - model.T) > _CHECK_ATOL * max(1.0, abs(model.T)):
        add(f"grid horizon {grid.T} does not match model horizon {model.T}")
    if grid.n_steps != model.n_steps:
        add(f"grid n_steps {grid.n_steps} does not match model n_steps {model.n_steps}")

    for name in ("m0", "y0", "F", "C", "G"):
        if not np.all(np.isfinite(getattr(model, name))):
            add(f"{name} has non-finite entries")

    theta0 = model.theta0
    if not np.all(np.isfinite(theta0)):
        add("theta0 has non-finite entries")
    elif not np.allclose(theta0, theta0.T, atol=_CHECK_ATOL):
        add("theta0 is not symmetric")
    else:
        min_eig = float(np.linalg.eigvalsh(0.5 * (theta0 + theta0.T)).min())
        if min_eig < -_CHECK_ATOL:
            add(f"theta0 is not positive semi-definite (min eigenvalue {min_eig:.3e})")

    if not modes.nu > 0:
        add(f"nu must be positive, got {modes.nu}")

    c, d = modes.costs, modes.d
    diag, off = np.abs(np.diag(c)).max(), c[~np.eye(d, dtype=bool)]
    if not np.all(np.isfinite(c)):
        add("switching cost not finite")
    elif diag > _CHECK_ATOL:
        add(f"diagonal cost nonzero (max |c(i,i)| = {diag:.3e})")
    elif d > 1 and off.min() < modes.nu - _CHECK_ATOL:
        add(f"switching cost below nu (min off-diagonal {off.min():.3e} < nu={modes.nu:g})")
    else:
        # violated[i1, i2, i3]: c(i1, i2) + c(i2, i3) < c(i1, i3); argwhere
        # lists violations in (i1, i2, i3) order, so the first is reported.
        violated = c[:, :, None] + c[None, :, :] < c[:, None, :] - _CHECK_ATOL
        if violated.any():
            i1, i2, i3 = np.argwhere(violated)[0]
            add(
                f"triangle inequality violated: "
                f"c({i1},{i2}) + c({i2},{i3}) = {c[i1, i2] + c[i2, i3]:g} "
                f"< c({i1},{i3}) = {c[i1, i3]:g}"
            )

    return report


def switch_count_bound(modes: ModeSet, f_sup: float, T: float) -> float:
    """Upper bound 2*T*f_sup/nu on the mean number of switches of an optimal
    strategy, given a bound f_sup on sup_i |f_i| over the working domain."""
    if not modes.nu > 0:
        raise ValueError(f"invalid ModeSet: nu must be > 0, got {modes.nu}")
    if f_sup < 0:
        raise ValueError(f"f_sup must be >= 0, got {f_sup}")
    if not T > 0:
        raise ValueError(f"T must be > 0, got {T}")
    return 2.0 * T * f_sup / modes.nu


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, a fraction or a non-number is a ValueError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def load_problem(source) -> tuple:
    """Build (ModelSpec, ModeSet) from the path of a JSON problem file or a mapping.

    Expected keys: n1, m1, n2, m2 (must equal n2), T, n_steps, F, C, G, m0,
    theta0, y0, modes (list of payoff selectors), costs (d x d matrix), nu.
    The dimensions and n_steps are integers (730.0 counts, 10.7 and true not).
    """
    if isinstance(source, Mapping):
        data = dict(source)
    else:
        with open(os.fspath(source), "r", encoding="utf-8") as fh:
            data = json.load(fh)

    required = ["n1", "m1", "n2", "m2", "T", "n_steps", "F", "C", "G",
                "m0", "theta0", "y0", "modes", "costs", "nu"]
    missing = [k for k in required if k not in data]
    if missing:
        raise ValueError(f"problem file missing keys: {missing}")
    ints = {k: _integer(k, data[k]) for k in ("n1", "m1", "n2", "m2", "n_steps")}
    # The filter takes U as a standard Brownian motion of Y's own dimension.
    if ints.pop("m2") != ints["n2"]:
        raise ValueError(f"m2 must equal n2, got m2={data['m2']}, n2={data['n2']}")

    try:
        T = float(data["T"])
    except (TypeError, ValueError):  # a word, a list
        raise ValueError(f"T: expected a number, got {data['T']!r}") from None
    model = ModelSpec(
        **ints, T=T,
        F=data["F"], C=data["C"], G=data["G"],
        m0=data["m0"], theta0=data["theta0"], y0=data["y0"],
    )
    if not isinstance(data["modes"], (list, tuple)):
        raise ValueError(f"modes must be a list of payoffs, got {data['modes']!r}")
    modes = ModeSet(payoffs=tuple(data["modes"]), costs=data["costs"], nu=data["nu"])
    return model, modes
