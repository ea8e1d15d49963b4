"""Elasticnet regression via cyclic coordinate descent.

A from-scratch replacement for ``sklearn.linear_model.ElasticNet`` with the
same parameterisation: the objective minimised is::

    1/(2n) * ||y - X w - b||^2
        + alpha * l1_ratio * ||w||_1
        + alpha * (1 - l1_ratio) / 2 * ||w||_2^2

Coordinate descent with soft-thresholding updates each weight in turn until
the largest coefficient change falls below ``tol`` or ``max_iter`` sweeps have
run.  The paper's wine-quality benchmark fits this model on training data read
from the faulty memory and reports R^2 on clean test data.

Every fit is bit-identical to the plain NumPy form of the update (one
``x[:, j] @ residual`` and one ``residual += x[:, j] * delta`` per
coordinate), which the quality goldens depend on.  The loop keeps the bits
while avoiding NumPy scalar round trips, under two rules:

* the dot product stays on the strided column view of the C-ordered centred
  matrix: BLAS ``ddot`` sums a strided and a contiguous vector in different
  orders, so a contiguous copy would change ``rho``;
* only the elementwise residual update reads a Fortran-ordered copy: an
  elementwise product does not depend on memory layout.

Per-column constants and the weights are Python floats, so the scalar part
of an update is plain float arithmetic in the same operation order.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.quality.metrics import r2_score

__all__ = ["ElasticNetRegressor"]


class ElasticNetRegressor:
    """Linear regression with combined L1/L2 regularisation.

    Parameters
    ----------
    alpha:
        Overall regularisation strength (0 disables regularisation and the
        model degenerates to ordinary least squares fitted by coordinate
        descent).
    l1_ratio:
        Mix between L1 (1.0, lasso) and L2 (0.0, ridge) penalties.
    max_iter:
        Maximum number of full coordinate-descent sweeps.
    tol:
        Convergence tolerance on the largest absolute coefficient update.
    fit_intercept:
        Whether to fit an unpenalised intercept term.
    """

    def __init__(
        self,
        alpha: float = 0.1,
        l1_ratio: float = 0.5,
        max_iter: int = 1000,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ) -> None:
        if not math.isfinite(alpha) or alpha < 0:
            raise ValueError(f"alpha must be finite and non-negative, got {alpha!r}")
        if not 0.0 <= l1_ratio <= 1.0:
            raise ValueError("l1_ratio must be in [0, 1]")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if not math.isfinite(tol) or tol <= 0:
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.n_iter_: int = 0

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, features: np.ndarray, targets: np.ndarray) -> "ElasticNetRegressor":
        """Fit the model by cyclic coordinate descent."""
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64).ravel()
        if features.ndim != 2:
            raise ValueError("features must be 2-D (samples x features)")
        n_samples, n_features = features.shape
        if n_samples != targets.size:
            raise ValueError("features and targets must have the same sample count")
        if n_samples == 0:
            raise ValueError("cannot fit on an empty dataset")

        if self.fit_intercept:
            x_mean = features.mean(axis=0)
            y_mean = float(targets.mean())
        else:
            x_mean = np.zeros(n_features)
            y_mean = 0.0
        x_centered = features - x_mean
        y_centered = targets - y_mean

        residual = y_centered.copy()
        column_norms = (x_centered ** 2).sum(axis=0) / n_samples
        l1_penalty = float(self.alpha * self.l1_ratio)
        l2_penalty = float(self.alpha * (1.0 - self.l1_ratio))

        # Everything a coordinate update reads besides the residual is fixed
        # for the whole fit, so it is looked up once here as Python floats.
        # Zero-norm columns never move their weight and are left out.
        x_update = np.asfortranarray(x_centered)
        columns = [
            (j, x_centered[:, j], x_update[:, j], norm, norm + l2_penalty)
            for j, norm in enumerate(column_norms.tolist())
            if norm != 0.0
        ]
        weights = [0.0] * n_features
        step = np.empty(n_samples)
        dot, multiply = np.dot, np.multiply

        self.n_iter_ = 0
        for iteration in range(self.max_iter):
            max_update = 0.0
            for j, column, column_update, norm, denominator in columns:
                old_weight = weights[j]
                # Partial residual excluding feature j's current contribution,
                # soft-thresholded by the L1 penalty.
                rho = float(dot(column, residual)) / n_samples + norm * old_weight
                if rho > l1_penalty:
                    rho -= l1_penalty
                elif rho < -l1_penalty:
                    rho += l1_penalty
                else:
                    rho = 0.0
                new_weight = rho / denominator
                if new_weight != old_weight:
                    delta = old_weight - new_weight
                    multiply(column_update, delta, out=step)
                    residual += step
                    weights[j] = new_weight
                    change = abs(delta)
                    if change > max_update:
                        max_update = change
            self.n_iter_ = iteration + 1
            if max_update < self.tol:
                break

        self.coef_ = np.array(weights, dtype=np.float64)
        self.intercept_ = y_mean - float(x_mean @ self.coef_) if self.fit_intercept else 0.0
        return self

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for new samples."""
        if self.coef_ is None:
            raise RuntimeError("the model must be fitted before calling predict()")
        features = np.asarray(features, dtype=np.float64)
        return features @ self.coef_ + self.intercept_

    def score(self, features: np.ndarray, targets: np.ndarray) -> float:
        """Coefficient of determination R^2 on the given data (Table 1 metric)."""
        return r2_score(targets, self.predict(features))
