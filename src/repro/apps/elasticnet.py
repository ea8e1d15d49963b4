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
coordinate), which the quality goldens depend on.  ``fit`` prepares the
centred matrix, its Fortran-ordered copy and the column norms in NumPy and
runs the sweeps through the active kernel backend
(:meth:`repro.kernels.KernelBackend.elasticnet_sweeps`): the NumPy reference
loop, or a compiled loop that calls the same BLAS ``ddot`` NumPy calls.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

import numpy as np

from repro.kernels import active_backend
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
        if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {max_iter!r}")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        if not math.isfinite(tol) or tol <= 0:
            raise ValueError(f"tol must be finite and positive, got {tol!r}")
        self.alpha = alpha
        self.l1_ratio = l1_ratio
        self.max_iter = int(max_iter)
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
        self.coef_, self.n_iter_ = active_backend().elasticnet_sweeps(
            x_centered,
            np.asfortranarray(x_centered),
            residual,
            column_norms,
            l1_penalty,
            l2_penalty,
            self.max_iter,
            float(self.tol),
        )
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
