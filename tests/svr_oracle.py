"""SciPy SLSQP reference solver for the epsilon-SVR dual (test oracle).

This is the solver ``repro.modeling.svr`` used before its interior-point
solver: the same dual, the same bounds and equality constraint, the same
SLSQP options.  The tests pin the interior-point solver against it; the
modeling bench (``benchmarks/modeling_baseline.py``) times it as the
host-comparable reference.

:class:`OracleSVR` is :class:`repro.modeling.svr.SVR` with only the dual
solve swapped, so gram matrix, intercept, prediction and support-vector
counting are shared code.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import optimize

from repro.errors import ModelingError
from repro.modeling.svr import SVR


def slsqp_dual(gram: np.ndarray, target: np.ndarray, C: float,
               epsilon: float) -> Tuple[np.ndarray, np.ndarray]:
    """Solve the epsilon-SVR dual with SLSQP; returns ``(alpha, alpha*)``.

    Like the old solver, an unconverged result is accepted whenever its
    objective is finite.
    """
    n = len(target)

    def objective_and_gradient(variables: np.ndarray):
        beta = variables[:n] - variables[n:]
        common = gram @ beta
        value = float(0.5 * beta @ common
                      + epsilon * np.sum(variables) - target @ beta)
        return value, np.concatenate([common + epsilon - target,
                                      -common + epsilon + target])

    constraints = [{
        "type": "eq",
        "fun": lambda v: np.sum(v[:n]) - np.sum(v[n:]),
        "jac": lambda v: np.concatenate([np.ones(n), -np.ones(n)]),
    }]
    result = optimize.minimize(objective_and_gradient, np.zeros(2 * n),
                               jac=True, bounds=[(0.0, C)] * (2 * n),
                               constraints=constraints, method="SLSQP",
                               options={"maxiter": 500, "ftol": 1e-9})
    if not result.success and not np.isfinite(result.fun):
        raise ModelingError(f"SVR dual optimization failed: {result.message}")
    return result.x[:n], result.x[n:]


def dual_objective(gram: np.ndarray, target: np.ndarray, epsilon: float,
                   alpha: np.ndarray, alpha_star: np.ndarray) -> float:
    """The epsilon-SVR dual objective both solvers minimize."""
    beta = alpha - alpha_star
    return float(0.5 * beta @ gram @ beta
                 + epsilon * np.sum(alpha + alpha_star) - target @ beta)


class OracleSVR(SVR):
    """:class:`SVR` whose dual is solved by SLSQP instead."""

    def _solve_dual(self, gram: np.ndarray, target: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        alpha, alpha_star = slsqp_dual(gram, target, self.C, self.epsilon)
        # SLSQP lands on its active bounds exactly.
        return (alpha, alpha_star,
                np.flatnonzero(np.abs(alpha - alpha_star) > 1e-8))
