"""Oracle interfaces, call counting and finite-difference derivative checks.

Every solver in this package talks to objectives through :class:`ProblemOracle`:
a deterministic bundle of value, gradient and Hessian callables with a reported
third-derivative Lipschitz constant. Problems that can write their third
derivative analytically also expose directional third-derivative actions,
which the verification layers use to cross-check the finite-difference route.

Oracles are pure functions of their inputs: no internal state, no caching of
iterates. :class:`CountedOracle` wraps any oracle and counts calls. Its
counters are plain integers: the solvers are single-threaded, and sharing one
counted oracle between threads is not supported.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

Vector = NDArray[np.float64]
Matrix = NDArray[np.float64]

_EPS = float(np.finfo(np.float64).eps)


class OracleCapabilityError(NotImplementedError):
    """Raised when an oracle is asked for a derivative it does not provide."""


class ProblemOracle:
    """Base class for convex objectives.

    Arguments:
        dim: ambient dimension, positive.
        lipschitz_L3: upper bound on the Lipschitz constant of the third
            derivative. Must be positive for ordinary problems; the zero
            sentinel used for degenerate composite parts is the one exception.
    """

    #: True when third_action / third_dir are analytic, not finite differences.
    has_third = False
    #: True only for the canonical all-zero objective.
    is_zero = False

    def __init__(self, dim: int, lipschitz_L3: float, allow_zero_l3: bool = False):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        l3 = float(lipschitz_L3)
        if not np.isfinite(l3) or l3 < 0.0 or (l3 == 0.0 and not allow_zero_l3):
            raise ValueError(f"lipschitz_L3 must be positive and finite, got {l3}")
        self.dim = dim
        self.lipschitz_L3 = l3

    @property
    def capabilities(self) -> dict[str, bool]:
        return {
            "value": True,
            "gradient": True,
            "hessian": True,
            "third_action": self.has_third,
        }

    def value(self, x: Vector) -> float:
        raise NotImplementedError

    def grad(self, x: Vector) -> Vector:
        raise NotImplementedError

    def hess(self, x: Vector) -> Matrix:
        raise NotImplementedError

    def third_action(self, x: Vector, s: Vector) -> Vector:
        """D3 f(x)[s, s] as a vector."""
        raise OracleCapabilityError(f"{type(self).__name__} has no analytic third derivative")

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        """D3 f(x)[s] as a symmetric matrix."""
        raise OracleCapabilityError(f"{type(self).__name__} has no analytic third derivative")

    def _check_point(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"point shape {x.shape} does not match dim {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("point contains non-finite entries")
        return x


class ZeroOracle(ProblemOracle):
    """The identically-zero objective, used as a degenerate composite part."""

    is_zero = True
    has_third = True

    def __init__(self, dim: int):
        super().__init__(dim, 0.0, allow_zero_l3=True)

    def value(self, x: Vector) -> float:
        self._check_point(x)
        return 0.0

    def grad(self, x: Vector) -> Vector:
        return np.zeros_like(self._check_point(x))

    def hess(self, x: Vector) -> Matrix:
        self._check_point(x)
        return np.zeros((self.dim, self.dim))

    def third_action(self, x: Vector, s: Vector) -> Vector:
        self._check_point(x)
        return np.zeros(self.dim)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        self._check_point(x)
        return np.zeros((self.dim, self.dim))


class SumOracle(ProblemOracle):
    """Pointwise sum of two oracles over the same space.

    lipschitz_L3 adds; the sum of valid bounds is a valid bound. Third
    derivative routines are available only when both parts have them.
    """

    def __init__(self, first: ProblemOracle, second: ProblemOracle):
        if first.dim != second.dim:
            raise ValueError(f"dim mismatch: {first.dim} vs {second.dim}")
        super().__init__(first.dim, first.lipschitz_L3 + second.lipschitz_L3,
                         allow_zero_l3=True)
        self.first = first
        self.second = second
        self.has_third = first.has_third and second.has_third

    def value(self, x: Vector) -> float:
        return self.first.value(x) + self.second.value(x)

    def grad(self, x: Vector) -> Vector:
        return self.first.grad(x) + self.second.grad(x)

    def hess(self, x: Vector) -> Matrix:
        return self.first.hess(x) + self.second.hess(x)

    def third_action(self, x: Vector, s: Vector) -> Vector:
        return self.first.third_action(x, s) + self.second.third_action(x, s)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        return self.first.third_dir(x, s) + self.second.third_dir(x, s)


class CountedOracle(ProblemOracle):
    """Forwarding wrapper that counts oracle calls.

    Forwarding is bit-exact: the wrapped oracle's outputs are returned
    untouched. One call increments exactly one counter.
    """

    def __init__(self, inner: ProblemOracle):
        super().__init__(inner.dim, inner.lipschitz_L3,
                         allow_zero_l3=inner.lipschitz_L3 == 0.0)
        self.inner = inner
        self.has_third = inner.has_third
        self.is_zero = inner.is_zero
        self.n_value = 0
        self.n_grad = 0
        self.n_hess = 0
        self.n_third = 0

    def reset(self) -> None:
        self.n_value = self.n_grad = self.n_hess = self.n_third = 0

    @property
    def counts(self) -> dict[str, int]:
        return {"value": self.n_value, "grad": self.n_grad,
                "hess": self.n_hess, "third": self.n_third}

    def value(self, x: Vector) -> float:
        self.n_value += 1
        return self.inner.value(x)

    def grad(self, x: Vector) -> Vector:
        self.n_grad += 1
        return self.inner.grad(x)

    def hess(self, x: Vector) -> Matrix:
        self.n_hess += 1
        return self.inner.hess(x)

    def third_action(self, x: Vector, s: Vector) -> Vector:
        self.n_third += 1
        return self.inner.third_action(x, s)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        self.n_third += 1
        return self.inner.third_dir(x, s)


def counted(oracle: ProblemOracle) -> CountedOracle:
    """Wrap an oracle for call counting; idempotent on already-wrapped ones."""
    if isinstance(oracle, CountedOracle):
        return oracle
    return CountedOracle(oracle)


def default_fd_step(x: Vector) -> float:
    # eps^(1/3) balances truncation and roundoff for central differences.
    return _EPS ** (1.0 / 3.0) * max(1.0, float(np.linalg.norm(x)))


def fd_check_grad(oracle: ProblemOracle, x: Vector, h: float | None = None) -> float:
    """Relative error of the analytic gradient against central differences.

    Returns ||grad f(x) - fd||/max(1, ||grad f(x)||) with one central
    difference of the value per coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_fd_step(x)
    g = oracle.grad(x)
    fd = np.empty_like(g)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd[i] = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(fd)):
        raise FloatingPointError("non-finite finite-difference gradient")
    return float(np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)))


def fd_check_hess(oracle: ProblemOracle, x: Vector, h: float | None = None) -> float:
    """Relative error of the analytic Hessian against gradient differences."""
    x = np.asarray(x, dtype=np.float64)
    if h is None:
        h = default_fd_step(x)
    H = oracle.hess(x)
    fd = np.empty_like(H)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fd[:, j] = (oracle.grad(x + e) - oracle.grad(x - e)) / (2.0 * h)
    if not np.all(np.isfinite(fd)):
        raise FloatingPointError("non-finite finite-difference Hessian")
    return float(np.linalg.norm(H - fd) / max(1.0, np.linalg.norm(H)))


def operator_norm(H: Matrix) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


def symmetry_defect(H: Matrix) -> float:
    """||H - H^T|| relative to 1 + ||H||, for Hessian sanity checks."""
    H = np.asarray(H, dtype=np.float64)
    return float(np.linalg.norm(H - H.T) / (1.0 + np.linalg.norm(H)))
