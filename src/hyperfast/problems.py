"""Benchmark objectives and dataset handling.

Three analytic families cover the verification needs:

* :class:`QuarticObjective` -- 0.5*x'Qx + c'x + (a4/4)*||x||^4 with every
  derivative in closed form. The fourth derivative is constant, so these are
  the primary exact-verification instances.
* :class:`LogisticLoss` -- regularized logistic regression on a dataset with
  labels in {-1, +1}. Its sigmoid is computed in numpy, so the package
  needs numpy alone at run time, and it holds no copy of the features.
* :class:`QuarticChain` -- sum of fourth powers of consecutive differences,
  the classic hard instance for first-order methods.

All oracles expose analytic third-derivative actions, which keeps the
finite-difference route honest (dual-route checks live in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracles import Matrix, ProblemOracle, Vector
from .taylor import fd_third_action


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (m, n) with labels in {-1.0, +1.0}."""

    features: Matrix
    labels: Vector

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError(f"features must be a non-empty 2-d array, got shape {feats.shape}")
        if labs.shape != (feats.shape[0],):
            raise ValueError(f"labels shape {labs.shape} does not match {feats.shape[0]} rows")
        # One row block at a time, so the check holds no m x n mask.
        if not all(np.isfinite(feats[rows]).all() for rows in _row_blocks(*feats.shape)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isin(labs, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


#: Elements per row block of a pass over the m x n features (the weighted
#: Gram, the row norms): a block's temporary is 256 KB at any m.
_BLOCK = 1 << 15


def _row_blocks(m: int, n: int) -> list[slice]:
    """Consecutive row slices of at most _BLOCK elements (one row if n is
    larger); a single slice when m*n <= _BLOCK."""
    step = max(1, _BLOCK // n)
    return [slice(i, min(i + step, m)) for i in range(0, m, step)]


def _row_sq_norms(A: Matrix) -> Vector:
    """||a_k||^2 for each row a_k of A, one row block at a time."""
    return np.concatenate([np.sum(A[rows] ** 2, axis=1) for rows in _row_blocks(*A.shape)])


def _weighted_gram(A: Matrix, w: Vector) -> Matrix:
    """A' diag(w) A, summed over row blocks. One block is the single product
    A.T @ (w[:, None] * A). Each further block's product is added in row
    panels of a third of a block, so no n x n partial is held: the call
    peaks at the n x n result plus 4/3 blocks."""
    first, *rest = _row_blocks(*A.shape)
    gram = A[first].T @ (w[first, None] * A[first])
    if rest:
        n = A.shape[1]
        height = max(1, _BLOCK // (3 * n))
        scaled = np.empty_like(A[first])
        panel = np.empty((min(height, n), n))
        for rows in rest:
            block = np.multiply(w[rows, None], A[rows],
                                out=scaled[: rows.stop - rows.start])
            for i in range(0, n, height):
                out = panel[: min(height, n - i)]
                np.matmul(A[rows, i:i + height].T, block, out=out)
                gram[i:i + height] += out
    return gram


def synth_logreg(seed: int, m: int, n: int) -> Dataset:
    """Synthetic classification data with a planted separator.

    Deterministic given the seed (numpy PCG64 via default_rng). Draw order:
    feature matrix, then the separator, then the 10 percent label-flip mask.
    Rows are normalized to unit Euclidean length.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((m, n))
    norms = np.sqrt(_row_sq_norms(feats))
    if np.any(norms == 0.0):
        raise ValueError("degenerate zero feature row")
    feats /= norms[:, None]
    separator = rng.standard_normal(n)
    labels = np.where(feats @ separator >= 0.0, 1.0, -1.0)
    flips = rng.random(m) < 0.1
    labels[flips] *= -1.0
    return Dataset(feats, labels)


# Largest |psi''''| for psi(t) = log(1 + exp(t)). With u = sigma*(1 - sigma)
# in (0, 1/4], psi'''' = u*(1 - 6u); |u*(1 - 6u)| peaks at u = 1/4 (t = 0)
# with value 1/8. The test suite re-derives this by numeric maximization.
_LOGISTIC_C3 = 0.125

#: Relative margin on the Gram's top eigenvalue for eigvalsh's roundoff.
_GRAM_ROUNDOFF = 1e-12


class LogisticLoss(ProblemOracle):
    """Mean logistic loss plus an L2 ridge term.

    f(x) = (1/m) sum_k log(1 + exp(-y_k <a_k, x>)) + (ridge/2)*||x||^2.

    The oracle holds one m x n array, the caller's data.features, and no
    call makes another. The labels act on m-vectors: y*(A @ x) equals
    (y*A) @ x exactly, since a sign flip rounds nothing. The weighted Gram
    A' diag(w) A of hess and third_dir, like the row norms behind L3, runs
    over row blocks of _BLOCK elements. So every result equals the formulas
    on W = y*A over all rows at once (tests/crosschecks.py) bit for bit,
    except a Gram past one block (m*n > _BLOCK), whose sum is regrouped by
    block: a roundoff change.

    lipschitz_L3 = (1/8)*max_k ||a_k||^2 * lambda_max(A'A)/m, times
    (1 + _GRAM_ROUNDOFF). Since psi''' is (1/8)-Lipschitz, Cauchy-Schwarz and
    sum_k (a_k.s)^6 <= max_k (a_k.s)^4 * sum_k (a_k.s)^2 give
    |D3f(x)[s]^3 - D3f(y)[s]^3| <= (1/8m)*sum_k |a_k.(x-y)|*|a_k.s|^3
    <= (1/8m)*||A(x-y)||*max_k |a_k.s|^2*||As||
    <= (1/8)*max_k ||a_k||^2 * lambda_max(A'A)/m * ||x-y||*||s||^3.
    It is exact on rank-one data (every row +-c*a). Since lambda_max(A'A) is
    at most the trace, it never exceeds (1/8)*max_k ||a_k||^2 * mean_k
    ||a_k||^2, the former bound (1/8)*mean ||a_k||^4 on equal-norm rows.
    """

    def __init__(self, data: Dataset, ridge: float = 0.0):
        ridge = float(ridge)
        if not (np.isfinite(ridge) and ridge >= 0.0):
            raise ValueError(f"ridge must be non-negative and finite, got {ridge}")
        row_sq = _row_sq_norms(data.features)
        # A.T @ A takes numpy's symmetric-product path: the n x n result alone.
        gram_top = float(np.linalg.eigvalsh(data.features.T @ data.features)[-1])
        # The ridge is quadratic so it adds nothing to the third derivative.
        super().__init__(data.n, _LOGISTIC_C3 * float(np.max(row_sq)) * gram_top / data.m
                         * (1.0 + _GRAM_ROUNDOFF))
        self.data = data
        self.ridge = ridge
        self._mean_row_norm = float(np.mean(np.sqrt(row_sq)))
        # -y/m per row: the gradient's coefficients with the labels folded in.
        self._grad_scale = -data.labels / data.m

    def _signed_margin(self, x: Vector) -> Vector:
        """y*<a, x> per row, in a new array."""
        t = self.data.features @ x
        t *= self.data.labels
        return t

    def _sigmoid(self, x: Vector, scale: float | Vector = 1.0) -> Vector:
        """scale*expit(-y*<a, x>) = scale/(1 + exp(y*<a, x>)) per row, in a
        new array; scale is a number or an m-vector. Exponents are capped at
        709, below exp's overflow, so a sigma under 1.2e-308 comes out as
        1.2e-308."""
        s = self._signed_margin(x)
        np.minimum(s, 709.0, out=s)
        np.exp(s, out=s)
        s += 1.0
        return np.divide(scale, s, out=s)

    def value(self, x: Vector) -> float:
        x = self._check_point(x)
        t = -self._signed_margin(x)
        return float(np.mean(np.logaddexp(0.0, t)) + 0.5 * self.ridge * (x @ x))

    def grad(self, x: Vector) -> Vector:
        x = self._check_point(x)
        coeff = self._sigmoid(x, self._grad_scale)
        return self.data.features.T @ coeff + self.ridge * x

    def grad_term_bound(self, x: Vector) -> float:
        """mean ||a_k|| + ridge*||x||: each gradient coefficient has
        |c_k| <= 1/m, so sum |c_k|*||a_k|| is at most the mean row norm."""
        x = self._check_point(x)
        return self._mean_row_norm + self.ridge * float(np.linalg.norm(x))

    def hess(self, x: Vector) -> Matrix:
        x = self._check_point(x)
        w = self._sigmoid(x)
        w *= 1.0 - w
        w /= self.data.m
        gram = _weighted_gram(self.data.features, w)
        gram.reshape(-1)[:: self.dim + 1] += self.ridge
        return gram

    def _psi3(self, x: Vector) -> Vector:
        s = self._sigmoid(x)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    def third_action(self, x: Vector, s: Vector) -> Vector:
        x = self._check_point(x)
        u = self.data.features @ np.asarray(s, dtype=np.float64)
        coeff = -self._psi3(x) * u**2 / self.data.m
        coeff *= self.data.labels
        return self.data.features.T @ coeff

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        x = self._check_point(x)
        coeff = -self._psi3(x) * self._signed_margin(np.asarray(s, dtype=np.float64))
        coeff /= self.data.m
        return _weighted_gram(self.data.features, coeff)


class QuarticObjective(ProblemOracle):
    """0.5*x'Qx + c'x + (a4/4)*||x||^4 with closed-form derivatives.

    The quartic part has constant fourth derivative
    D4[w][u, v] = 2*a4*(<w,u>v + <w,v>u + <u,v>w), whose symmetric operator
    norm is 6*a4 (maximize 6*a4*<d,u>*||u||^2 over unit d, u), so
    lipschitz_L3 = 6*a4 exactly. a4 = 0 instances are quadratic; any positive
    constant bounds their vanishing third derivative, and 1.0 is reported so
    the step-size window stays well defined.
    """

    def __init__(self, Q: Matrix, c: Vector, a4: float):
        Q = np.asarray(Q, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        a4 = float(a4)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        if c.shape != (Q.shape[0],):
            raise ValueError("c shape does not match Q")
        if np.linalg.norm(Q - Q.T) > 1e-10 * (1.0 + np.linalg.norm(Q)):
            raise ValueError("Q must be symmetric")
        if a4 < 0.0:
            raise ValueError("a4 must be non-negative")
        if float(np.min(np.linalg.eigvalsh(Q))) < -1e-10 * (1.0 + np.linalg.norm(Q)):
            raise ValueError("Q must be positive semidefinite")
        super().__init__(Q.shape[0], 6.0 * a4 if a4 > 0.0 else 1.0)
        self.Q = Q
        self.c = c
        self.a4 = a4

    def value(self, x: Vector) -> float:
        x = self._check_point(x)
        return float(0.5 * x @ (self.Q @ x) + self.c @ x + 0.25 * self.a4 * (x @ x) ** 2)

    def grad(self, x: Vector) -> Vector:
        x = self._check_point(x)
        return self.Q @ x + self.c + self.a4 * (x @ x) * x

    def grad_term_bound(self, x: Vector) -> float:
        """|| |Q| |x| || + ||c|| + a4*||x||^3."""
        x = self._check_point(x)
        return float(np.linalg.norm(np.abs(self.Q) @ np.abs(x)) + np.linalg.norm(self.c)
                     + self.a4 * np.linalg.norm(x) ** 3)

    def hess(self, x: Vector) -> Matrix:
        x = self._check_point(x)
        return self.Q + self.a4 * ((x @ x) * np.eye(self.dim) + 2.0 * np.outer(x, x))

    def third_action(self, x: Vector, s: Vector) -> Vector:
        x = self._check_point(x)
        s = np.asarray(s, dtype=np.float64)
        return self.a4 * (4.0 * (x @ s) * s + 2.0 * (s @ s) * x)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        x = self._check_point(x)
        s = np.asarray(s, dtype=np.float64)
        cross = np.outer(s, x)
        return self.a4 * (2.0 * (x @ s) * np.eye(self.dim) + 2.0 * (cross + cross.T))


class QuarticChain(ProblemOracle):
    """f(x) = x_1^4 + sum_{i>1} (x_i - x_{i-1})^4, minimized at the origin.

    With D the lower-bidiagonal difference matrix (u = Dx), the chain is
    f(x) = sum_i u_i^4, so every derivative is a D-conjugated diagonal. For
    the third derivative, with D_i the rows of D, Cauchy-Schwarz and
    sum_i w_i^6 <= max_i w_i^4 * sum_i w_i^2 give
    |D3f(x)[s]^3 - D3f(y)[s]^3| = 24*|sum_i (D(x-y))_i*(Ds)_i^3|
    <= 24*||D(x-y)||*max_i |(Ds)_i|^2*||Ds||
    <= 24*max_i ||D_i||^2 * sigma_max(D)^2 * ||x-y||*||s||^3,
    so lipschitz_L3 = 48*sigma_max(D)^2 for n >= 2 (rows of norm sqrt(2)),
    and 24 at n = 1, where it is exact.
    """

    def __init__(self, n: int):
        n = int(n)
        if n < 1:
            raise ValueError("n must be >= 1")
        D = np.eye(n) - np.diag(np.ones(n - 1), -1)
        sigma_max = float(np.linalg.svd(D, compute_uv=False)[0])
        super().__init__(n, 24.0 * float(np.max(np.sum(D**2, axis=1))) * sigma_max**2)
        self.D = D

    def _diffs(self, x: Vector) -> Vector:
        u = np.empty_like(x)
        u[0] = x[0]
        u[1:] = x[1:] - x[:-1]
        return u

    def _adjoint(self, v: Vector) -> Vector:
        out = v.copy()
        out[:-1] -= v[1:]
        return out

    def value(self, x: Vector) -> float:
        x = self._check_point(x)
        return float(np.sum(self._diffs(x) ** 4))

    def grad(self, x: Vector) -> Vector:
        x = self._check_point(x)
        return self._adjoint(4.0 * self._diffs(x) ** 3)

    def hess(self, x: Vector) -> Matrix:
        x = self._check_point(x)
        u = self._diffs(x)
        return self.D.T @ np.diag(12.0 * u**2) @ self.D

    def third_action(self, x: Vector, s: Vector) -> Vector:
        x = self._check_point(x)
        u = self._diffs(x)
        w = self._diffs(np.asarray(s, dtype=np.float64))
        return self._adjoint(24.0 * u * w**2)

    def third_dir(self, x: Vector, s: Vector) -> Matrix:
        x = self._check_point(x)
        u = self._diffs(x)
        w = self._diffs(np.asarray(s, dtype=np.float64))
        return self.D.T @ np.diag(24.0 * u * w) @ self.D


#: sampled_l3's pair count, seed, point scale and gradient-difference step.
_L3_SAMPLES, _L3_SEED, _L3_RADIUS, _L3_TAU = 64, 0, 1.0, 1e-3


def sampled_l3(oracle: ProblemOracle) -> float:
    """Empirical lower estimate of the third-derivative Lipschitz constant.

    Maximizes (||(D3f(x) - D3f(y))[s, s]|| - err) / ||x - y|| over random
    pairs in a ball and unit s, third actions taken by gradient differences
    so as not to lean on the oracle's analytic route; err bounds their
    roundoff, 8*eps*terms/tau^2 per point with terms as in bdgm.setup.
    A valid reported lipschitz_L3 is not exceeded (up to truncation).
    """
    rng = np.random.default_rng(_L3_SEED)
    best = 0.0
    for _ in range(_L3_SAMPLES):
        x = _L3_RADIUS * rng.standard_normal(oracle.dim) / np.sqrt(oracle.dim)
        y = _L3_RADIUS * rng.standard_normal(oracle.dim) / np.sqrt(oracle.dim)
        s = rng.standard_normal(oracle.dim)
        s_norm = float(np.linalg.norm(s))
        gap = float(np.linalg.norm(x - y))
        if s_norm == 0.0 or gap == 0.0:
            continue
        s /= s_norm
        actions, err = [], 0.0
        for point in (x, y):
            g = oracle.grad(point)
            terms = max(oracle.grad_term_bound(point) or 0.0, float(np.linalg.norm(g)))
            err += 8.0 * np.finfo(np.float64).eps * terms / _L3_TAU**2
            actions.append(fd_third_action(oracle, point, s, _L3_TAU, g))
        best = max(best, (float(np.linalg.norm(actions[0] - actions[1])) - err) / gap)
    return best
