"""Epsilon-insensitive support vector regression (from scratch).

The paper evaluates SVR with two-degree polynomial and RBF kernels for
step-time prediction (Table II) and with an RBF kernel for checkpoint-time
prediction (Table IV), tuning the penalty ``C`` (called ``p`` in the paper)
and the epsilon tube via grid search.

The implementation solves the standard epsilon-SVR dual problem

    minimize  0.5 * (a - a*)^T K (a - a*) + eps * sum(a + a*) - y^T (a - a*)
    subject to  sum(a - a*) = 0,   0 <= a, a* <= C

Solver
------
:func:`solve_svr_dual` is a dense primal-dual interior-point method with
Mehrotra predictor-corrector steps.  Each iteration factors the Newton
matrix once (Cholesky, through its ``n x n`` block for ``a - a*``) and
reuses the factor for the predictor, the corrector and the rank-one Schur
step of the equality multiplier.  The paper's fits (16 to 100 rows)
converge in 8 to 15 iterations, a few milliseconds each.

Stopping rule and failure contract
----------------------------------
A solve stops when the dual residual (relative to ``1 + max|linear
term|``), the primal residual ``|sum(a - a*)| / (1 + C)`` and the mean
complementarity ``mu`` are all below :data:`TOLERANCE` (1e-10).  If that
has not happened within :data:`MAX_ITERATIONS` iterations, or the Newton
matrix stops being positive definite, the solve raises
:class:`~repro.errors.ModelingError` naming the residuals: an unconverged
answer is never returned.  Non-finite features or targets raise
:class:`~repro.errors.DataError` before any solve.  A fitted :class:`SVR`
records ``n_iter_``, ``dual_residual_``, ``primal_residual_`` and ``mu_``.

Interior iterates approach a bound without reaching it, so support
vectors are identified from the bound multipliers (``support_``), not by
thresholding the dual coefficients.

Why not SMO
-----------
Sequential minimal optimization (LIBSVM's solver) updates two multipliers
at a time and needs many iterations when the Gram matrix is
rank-deficient.  The Table II polynomial rows have one feature, so their
degree-2 Gram matrix ``(g x x' + 1)^2`` has rank 3 whatever the row count.
A prototype SMO with second-order working-set selection needed 190k
iterations (12.6 s) for one 16-row polynomial fit at C=100, eps=0.01; the
interior-point method's iteration count does not depend on the rank.

Lagrange multipliers, support vectors, and the intercept are exposed for
inspection.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np
from scipy.linalg.lapack import dpotrf as potrf, dpotrs as potrs

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling.kernels import linear_kernel, polynomial_kernel, rbf_kernel


def _make_kernel(kernel: str, degree: int, gamma: Optional[float],
                 coef0: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    name = kernel.lower()
    if name == "linear":
        return linear_kernel
    if name in ("poly", "polynomial"):
        return lambda a, b: polynomial_kernel(a, b, degree=degree,
                                              gamma=gamma if gamma else 1.0,
                                              coef0=coef0)
    if name == "rbf":
        return lambda a, b: rbf_kernel(a, b, gamma=gamma if gamma else 1.0)
    raise ModelingError(f"unknown kernel {kernel!r}; use 'linear', 'poly', or 'rbf'")


#: Interior-point iterations allowed before a solve counts as unconverged.
MAX_ITERATIONS = 100
#: Stopping tolerance on the relative dual residual, the relative primal
#: residual and the complementarity measure ``mu``.
TOLERANCE = 1e-10
#: Fraction of the distance to the boundary of the feasible box one step
#: may cover, so iterates stay strictly interior.
STEP_FRACTION = 0.995


class DualSolution(NamedTuple):
    """Solution of the epsilon-SVR dual and the solve's final state."""

    alpha: np.ndarray
    alpha_star: np.ndarray
    #: Indices of the support vectors.
    support: np.ndarray
    iterations: int
    dual_residual: float
    primal_residual: float
    mu: float


def _max_step(state: np.ndarray, move: np.ndarray) -> float:
    """Largest ``t <= 1`` keeping ``state + t * move >= 0``."""
    shrinking = move < 0
    if not shrinking.any():
        return 1.0
    return min(1.0, float(np.min(state[shrinking] / -move[shrinking])))


def solve_svr_dual(gram: np.ndarray, target: np.ndarray, C: float,
                   epsilon: float) -> DualSolution:
    """Solve the epsilon-SVR dual by a primal-dual interior-point method.

    The variables are ``x = [alpha; alpha*]`` in the box ``0 <= x <= C``
    with ``a^T x = sum(alpha) - sum(alpha*) = 0``.  Slacks ``s = C - x``
    carry the upper bounds; ``z`` and ``w`` are the multipliers of the
    lower and upper bounds and ``y`` that of the equality.  Each iteration
    is one Mehrotra predictor-corrector step on the perturbed KKT
    conditions ``x z = s w = sigma mu``.

    The Newton matrix ``H + D`` (``H = [[K, -K], [-K, K]]``,
    ``D = diag(z / x + w / s) = diag(d1, d2)``) is factored once per
    iteration.  Block elimination turns its ``2n x 2n`` system into one
    for ``beta = alpha - alpha*`` whose matrix,
    ``K + diag(d1 d2 / (d1 + d2))``, is symmetric positive definite; its
    Cholesky factor serves the predictor and the corrector.  Of each
    ``(alpha_i, alpha*_i)`` pair, the one with the larger ``d`` is
    recovered first, which keeps the back-substitution exact for a
    variable pinned at a bound.  The equality multiplier's step comes from
    a rank-one Schur complement.

    Raises:
        ModelingError: The Newton matrix stopped being positive definite,
            or the residuals were still above :data:`TOLERANCE` after
            :data:`MAX_ITERATIONS` iterations.  An unconverged solution is
            never returned.
    """
    n = len(target)
    m = 2 * n
    linear = np.concatenate([epsilon - target, epsilon + target])
    dual_scale = 1.0 + float(np.max(np.abs(linear)))
    # state = [x; s; z; w]: x pairs with z and s with w.  The start is the
    # centre of the box, which satisfies the equality, with multipliers
    # that make it dual feasible.
    state = np.empty(4 * m)
    state[:2 * m] = 0.5 * C
    state[2 * m:3 * m] = np.maximum(linear, 0.0) + 1.0
    state[3 * m:] = np.maximum(-linear, 0.0) + 1.0
    primal_part, dual_part = state[:2 * m], state[2 * m:]
    x = state[:m]
    y = 0.0
    move = np.empty_like(state)
    iteration = 0
    while True:
        beta = x[:n] - x[n:]
        decision = gram @ beta - y
        dual = linear - dual_part[:m] + dual_part[m:]
        dual[:n] += decision
        dual[n:] -= decision
        primal = float(beta.sum())
        products = primal_part * dual_part
        mu = float(products.sum()) / (2 * m)
        dual_residual = float(np.max(np.abs(dual))) / dual_scale
        primal_residual = abs(primal) / (1.0 + C)
        if (dual_residual < TOLERANCE and primal_residual < TOLERANCE
                and mu < TOLERANCE):
            # Interior iterates only approach a bound, so a coefficient
            # is not exactly zero off the support.  A variable whose
            # lower-bound multiplier exceeds its own value is at that
            # bound; a sample is a support vector unless both of its
            # variables are.
            at_zero = x < dual_part[:m]
            support = np.flatnonzero(~(at_zero[:n] & at_zero[n:]))
            return DualSolution(x[:n].copy(), x[n:].copy(), support,
                                iteration, dual_residual, primal_residual, mu)
        if iteration >= MAX_ITERATIONS:
            raise ModelingError(
                f"SVR dual did not converge in {MAX_ITERATIONS} interior-"
                f"point iterations: dual residual {dual_residual:.3g}, "
                f"primal residual {primal_residual:.3g}, mu {mu:.3g} "
                f"(tolerance {TOLERANCE:g})")
        iteration += 1

        ratios = dual_part / primal_part
        weights = ratios[:m] + ratios[m:]
        inverse1 = (1.0 / weights[:n])[:, None]
        inverse2 = (1.0 / weights[n:])[:, None]
        reduced = 1.0 / (inverse1 + inverse2)
        newton = gram.copy()
        newton.flat[::n + 1] += reduced[:, 0]
        factor, info = potrf(newton, lower=1, overwrite_a=1, clean=0)
        if info != 0:
            raise ModelingError(
                f"SVR dual Newton matrix is not positive definite at "
                f"interior-point iteration {iteration}")
        first = (inverse1 <= inverse2)

        def newton_solve(rhs: np.ndarray) -> np.ndarray:
            """Solve ``(H + D) v = rhs`` for the columns of ``rhs``."""
            r1, r2 = rhs[:n], rhs[n:]
            coef, _ = potrs(factor, reduced * (r1 * inverse1 - r2 * inverse2),
                            lower=1)
            kb = gram @ coef
            upper = (r1 - kb) * inverse1
            lower = (r2 + kb) * inverse2
            return np.concatenate([np.where(first, upper, coef + lower),
                                   np.where(first, upper - coef, lower)])

        def direction(complement: np.ndarray, base: np.ndarray) -> float:
            """Fill ``move`` for the complementarity target ``complement``
            from ``base`` (the Newton solve without the equality); returns
            the equality multiplier's step."""
            dy = (-primal - float(base[:n].sum() - base[n:].sum())) / schur
            dx = base + schur_move * dy
            move[:m] = dx
            move[m:2 * m] = -dx
            move[2 * m:] = (complement - dual_part * move[:2 * m]) / primal_part
            return dy

        def newton_rhs(complement: np.ndarray) -> np.ndarray:
            scaled = complement / primal_part
            return -dual + scaled[:m] - scaled[m:]

        # Predictor (affine scaling) and the equality column share one
        # two-column solve.
        affine = -products
        both = newton_solve(np.column_stack([np.concatenate(
            [np.ones(n), -np.ones(n)]), newton_rhs(affine)]))
        schur_move = both[:, 0]
        schur = float(schur_move[:n].sum() - schur_move[n:].sum())
        direction(affine, both[:, 1])
        step = _max_step(state, move)
        mu_affine = float(((primal_part + step * move[:2 * m])
                           @ (dual_part + step * move[2 * m:]))) / (2 * m)
        sigma = (mu_affine / mu) ** 3
        # Corrector: centring plus the predictor's second-order term.
        corrector = sigma * mu - products - move[:2 * m] * move[2 * m:]
        dy = direction(corrector, newton_solve(newton_rhs(corrector)[:, None])[:, 0])
        step = STEP_FRACTION * _max_step(state, move)
        state += step * move
        y += step * dy


class SVR:
    """Epsilon-insensitive support vector regression.

    Args:
        kernel: ``"linear"``, ``"poly"``, or ``"rbf"``.
        C: Penalty parameter (the paper's ``p``), searched over [10, 100].
        epsilon: Width of the insensitive tube, searched over [0.01, 0.1].
        gamma: Kernel coefficient.  ``None`` selects ``1 / (n_features *
            Var(X))`` ("scale"), matching common practice.
        degree: Degree of the polynomial kernel (2 in the paper).
        coef0: Independent term of the polynomial kernel.
    """

    def __init__(self, kernel: str = "rbf", C: float = 10.0, epsilon: float = 0.05,
                 gamma: Optional[float] = None, degree: int = 2, coef0: float = 1.0):
        if C <= 0:
            raise ModelingError("C must be positive")
        if epsilon < 0:
            raise ModelingError("epsilon must be non-negative")
        self.kernel = kernel
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        # Fitted state.
        self.support_vectors_: Optional[np.ndarray] = None
        self.dual_coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[float] = None
        self.support_: Optional[np.ndarray] = None
        self.n_iter_: Optional[int] = None
        self.dual_residual_: Optional[float] = None
        self.primal_residual_: Optional[float] = None
        self.mu_: Optional[float] = None
        self._gamma_value: Optional[float] = None

    # ------------------------------------------------------------------
    # Internal helpers.
    # ------------------------------------------------------------------
    @staticmethod
    def _as_matrix(features) -> np.ndarray:
        matrix = np.asarray(features, dtype=float)
        if matrix.ndim == 1:
            matrix = matrix.reshape(-1, 1)
        if matrix.ndim != 2:
            raise DataError("features must be 1-D or 2-D")
        return matrix

    def _resolve_gamma(self, matrix: np.ndarray) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        variance = matrix.var()
        if variance <= 0:
            variance = 1.0
        return 1.0 / (matrix.shape[1] * variance)

    # ------------------------------------------------------------------
    # Fitting.
    # ------------------------------------------------------------------
    def fit(self, features, targets) -> "SVR":
        """Fit the SVR by solving the dual quadratic program."""
        matrix = self._as_matrix(features)
        target = np.asarray(targets, dtype=float).ravel()
        if matrix.shape[0] != target.shape[0]:
            raise DataError("features and targets must have the same length")
        if matrix.shape[0] < 2:
            raise DataError("SVR needs at least two samples")
        if not (np.isfinite(matrix).all() and np.isfinite(target).all()):
            raise DataError("SVR features and targets must be finite")
        n = matrix.shape[0]
        self._gamma_value = self._resolve_gamma(matrix)
        kernel_fn = _make_kernel(self.kernel, self.degree, self._gamma_value, self.coef0)
        gram = kernel_fn(matrix, matrix)
        # Guard against slight asymmetry from floating point.
        gram = 0.5 * (gram + gram.T) + 1e-10 * np.eye(n)

        alpha, alpha_star, support = self._solve_dual(gram, target)
        beta = alpha - alpha_star

        self.support_ = support
        self.support_vectors_ = matrix
        self.dual_coef_ = beta
        self.intercept_ = self._compute_intercept(gram, target, alpha, alpha_star, beta)
        return self

    def _solve_dual(self, gram: np.ndarray, target: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Solve the dual: ``(alpha, alpha*, support indices)``.

        Records the solve's iteration count and final residuals.
        """
        solution = solve_svr_dual(gram, target, self.C, self.epsilon)
        self.n_iter_ = solution.iterations
        self.dual_residual_ = solution.dual_residual
        self.primal_residual_ = solution.primal_residual
        self.mu_ = solution.mu
        return solution.alpha, solution.alpha_star, solution.support

    def _compute_intercept(self, gram: np.ndarray, target: np.ndarray,
                           alpha: np.ndarray, alpha_star: np.ndarray,
                           beta: np.ndarray) -> float:
        decision = gram @ beta
        tolerance = 1e-6 * self.C
        estimates = []
        free_alpha = (alpha > tolerance) & (alpha < self.C - tolerance)
        free_alpha_star = (alpha_star > tolerance) & (alpha_star < self.C - tolerance)
        estimates.extend(target[free_alpha] - decision[free_alpha] - self.epsilon)
        estimates.extend(target[free_alpha_star] - decision[free_alpha_star] + self.epsilon)
        if estimates:
            return float(np.mean(estimates))
        # Fall back to the unconstrained least-squares intercept.
        return float(np.mean(target - decision))

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------
    def predict(self, features) -> np.ndarray:
        """Predict targets for new samples."""
        if (self.support_vectors_ is None or self.dual_coef_ is None
                or self.intercept_ is None):
            raise NotFittedError("SVR must be fitted before predict")
        matrix = self._as_matrix(features)
        if matrix.shape[1] != self.support_vectors_.shape[1]:
            raise DataError("feature count differs from the fitted data")
        kernel_fn = _make_kernel(self.kernel, self.degree, self._gamma_value, self.coef0)
        gram = kernel_fn(matrix, self.support_vectors_)
        return gram @ self.dual_coef_ + self.intercept_

    @property
    def n_support_(self) -> int:
        """Number of support vectors (samples whose ``alpha`` or ``alpha*``
        is off its zero bound)."""
        if self.support_ is None:
            raise NotFittedError("SVR must be fitted first")
        return len(self.support_)

    def score_mae(self, features, targets) -> float:
        """Mean absolute error on the given samples."""
        from repro.modeling.metrics import mean_absolute_error

        return mean_absolute_error(targets, self.predict(features))
