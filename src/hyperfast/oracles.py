"""Oracle interfaces, call counting and the error roots.

Every solver in this package talks to objectives through :class:`ProblemOracle`:
a deterministic bundle of value, gradient and Hessian callables with a reported
third-derivative Lipschitz constant. Problems that can write their third
derivative analytically also expose directional third-derivative actions,
needed by natmi_exact and by sliding's g (taylor.ModelSpec's analytic route);
the inexact engine takes gradients and Hessians only.

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


class OracleCapabilityError(NotImplementedError):
    """Raised when an oracle is asked for a derivative it does not provide."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration, or solver parameters
    that a solver refuses before its first oracle call."""


class SolverError(RuntimeError):
    """A numeric failure in the middle of a solve; records holds the rows
    written before it, which the harness flushes as a partial trace."""

    records: tuple = ()


class NonFiniteError(SolverError, ValueError):
    """A non-finite point reached an oracle."""


class ProblemOracle:
    """Base class for convex objectives.

    Arguments:
        dim: ambient dimension, positive.
        lipschitz_L3: upper bound on the Lipschitz constant of the third
            derivative, positive and finite.

    An oracle whose gradient is a float sum of terms may report a bound on
    their summed magnitudes (grad_term_bound). The inexact engine sizes the
    roundoff of its gradient differences from it, since near the optimum
    ||grad f|| is far smaller than the terms that cancel to give it.
    """

    #: True only for the canonical all-zero objective.
    is_zero = False

    def __init__(self, dim: int, lipschitz_L3: float):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        l3 = float(lipschitz_L3)
        if not np.isfinite(l3) or l3 <= 0.0:
            raise ValueError(f"lipschitz_L3 must be positive and finite, got {l3}")
        self.dim = dim
        self.lipschitz_L3 = l3

    def value(self, x: Vector) -> float:
        raise NotImplementedError

    def grad(self, x: Vector) -> Vector:
        raise NotImplementedError

    def hess(self, x: Vector) -> Matrix:
        raise NotImplementedError

    def grad_term_bound(self, x: Vector) -> float | None:
        """Bound on the summed magnitudes of the terms whose float sum is
        grad(x), so grad's roundoff is at most a few eps times it; None
        when the oracle has none. It makes no pass over the data and calls
        no gradient, so the call counters stay honest."""
        return None

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
        if not np.isfinite(x).all():
            raise NonFiniteError("point contains non-finite entries")
        return x


class ZeroOracle(ProblemOracle):
    """The identically-zero objective, used as a degenerate composite part.

    Its third derivative vanishes, so any positive constant bounds it; it
    reports 1.0, as QuarticObjective does for a4 = 0.
    """

    is_zero = True

    def __init__(self, dim: int):
        super().__init__(dim, 1.0)

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
        super().__init__(first.dim, first.lipschitz_L3 + second.lipschitz_L3)
        self.first = first
        self.second = second

    def value(self, x: Vector) -> float:
        return self.first.value(x) + self.second.value(x)

    def grad(self, x: Vector) -> Vector:
        return self.first.grad(x) + self.second.grad(x)

    def hess(self, x: Vector) -> Matrix:
        return self.first.hess(x) + self.second.hess(x)

    def grad_term_bound(self, x: Vector) -> float | None:
        first = self.first.grad_term_bound(x)
        second = self.second.grad_term_bound(x)
        if first is None or second is None:
            return None
        return first + second

    def third_action(self, x: Vector, s: Vector) -> Vector:
        return self.first.third_action(x, s) + self.second.third_action(x, s)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        return self.first.third_dir(x, s) + self.second.third_dir(x, s)


class CountedOracle(ProblemOracle):
    """Forwarding wrapper that counts oracle calls.

    Forwarding is bit-exact: the wrapped oracle's outputs are returned
    untouched. One oracle call increments exactly one counter;
    grad_term_bound is no oracle call and counts nothing.
    """

    def __init__(self, inner: ProblemOracle):
        super().__init__(inner.dim, inner.lipschitz_L3)
        self.inner = inner
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

    def grad_term_bound(self, x: Vector) -> float | None:
        """Forwarded uncounted: no oracle call is made."""
        return self.inner.grad_term_bound(x)

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


def operator_norm(H: Matrix) -> float:
    """Largest absolute eigenvalue of a symmetric matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))
