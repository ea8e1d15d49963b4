"""Tests for the coordinate-descent Elasticnet regressor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.elasticnet import ElasticNetRegressor
from repro.apps.preprocessing import StandardScaler
from repro.kernels import available_backends, use_backend
from repro.quantize.fixedpoint import FixedPointFormat
from repro.sim.experiment import elasticnet_benchmark


def _linear_data(rng, n=200, p=6, noise=0.1):
    x = rng.normal(size=(n, p))
    true_coef = np.array([2.0, -1.5, 0.0, 0.0, 3.0, 0.5])[:p]
    y = x @ true_coef + 1.7 + rng.normal(scale=noise, size=n)
    return x, y, true_coef


class TestFitting:
    def test_recovers_linear_relationship(self, rng):
        x, y, true_coef = _linear_data(rng)
        model = ElasticNetRegressor(alpha=0.001, l1_ratio=0.5).fit(x, y)
        assert np.allclose(model.coef_, true_coef, atol=0.1)
        assert model.intercept_ == pytest.approx(1.7, abs=0.1)

    def test_high_r2_on_clean_data(self, rng):
        x, y, _ = _linear_data(rng)
        model = ElasticNetRegressor(alpha=0.01).fit(x, y)
        assert model.score(x, y) > 0.95

    def test_strong_l1_drives_coefficients_to_zero(self, rng):
        x, y, _ = _linear_data(rng, noise=0.5)
        model = ElasticNetRegressor(alpha=50.0, l1_ratio=1.0).fit(x, y)
        assert np.allclose(model.coef_, 0.0)
        # With all-zero weights the prediction is the target mean.
        assert model.intercept_ == pytest.approx(float(np.mean(y)), abs=1e-6)

    def test_l1_sparsity_increases_with_alpha(self, rng):
        x, y, _ = _linear_data(rng, noise=0.3)
        weak = ElasticNetRegressor(alpha=0.01, l1_ratio=1.0).fit(x, y)
        strong = ElasticNetRegressor(alpha=1.0, l1_ratio=1.0).fit(x, y)
        assert np.sum(np.abs(strong.coef_) < 1e-8) >= np.sum(np.abs(weak.coef_) < 1e-8)

    def test_ridge_shrinks_but_keeps_coefficients(self, rng):
        x, y, true_coef = _linear_data(rng)
        ridge = ElasticNetRegressor(alpha=5.0, l1_ratio=0.0).fit(x, y)
        assert np.all(np.abs(ridge.coef_) < np.abs(true_coef) + 0.1)
        assert np.any(np.abs(ridge.coef_) > 1e-3)

    def test_constant_feature_gets_zero_weight(self, rng):
        x, y, _ = _linear_data(rng, p=3)
        x = np.hstack([x, np.ones((len(x), 1))])
        model = ElasticNetRegressor(alpha=0.01).fit(x, y)
        assert model.coef_[-1] == 0.0

    def test_without_intercept(self, rng):
        x = rng.normal(size=(100, 2))
        y = x @ np.array([1.0, -2.0])
        model = ElasticNetRegressor(alpha=0.001, fit_intercept=False).fit(x, y)
        assert model.intercept_ == 0.0
        assert np.allclose(model.coef_, [1.0, -2.0], atol=0.05)

    def test_converges_and_reports_iterations(self, rng):
        x, y, _ = _linear_data(rng)
        model = ElasticNetRegressor(alpha=0.01, max_iter=500).fit(x, y)
        assert 1 <= model.n_iter_ <= 500


class TestValidation:
    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            ElasticNetRegressor(alpha=-1.0)
        with pytest.raises(ValueError):
            ElasticNetRegressor(l1_ratio=1.5)
        with pytest.raises(ValueError):
            ElasticNetRegressor(max_iter=0)
        with pytest.raises(ValueError):
            ElasticNetRegressor(tol=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_alpha(self, value):
        with pytest.raises(ValueError, match="alpha"):
            ElasticNetRegressor(alpha=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, value):
        with pytest.raises(ValueError, match="tol"):
            ElasticNetRegressor(tol=value)

    @pytest.mark.parametrize("value", [2.5, 10.0, True, False, "10", None])
    def test_rejects_non_integer_max_iter(self, value):
        with pytest.raises(ValueError, match="max_iter"):
            ElasticNetRegressor(max_iter=value)

    def test_accepts_numpy_integer_max_iter(self, rng):
        x, y, _ = _linear_data(rng)
        model = ElasticNetRegressor(max_iter=np.int64(3), tol=1e-15).fit(x, y)
        assert model.max_iter == 3 and type(model.max_iter) is int
        assert model.n_iter_ == 3

    def test_rejects_mismatched_shapes(self, rng):
        with pytest.raises(ValueError):
            ElasticNetRegressor().fit(rng.normal(size=(10, 2)), rng.normal(size=9))

    def test_rejects_1d_features(self, rng):
        with pytest.raises(ValueError):
            ElasticNetRegressor().fit(rng.normal(size=10), rng.normal(size=10))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ElasticNetRegressor().predict(np.zeros((2, 2)))


def _regression(seed, n=60, p=5, correlated=False):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p))
    if correlated:
        x[:, 1:] += 3.0 * x[:, :1]
    y = x @ np.linspace(1.5, -1.0, p) + 0.4 + rng.normal(scale=0.3, size=n)
    return x, y


def _zero_variance_column():
    x, y = _regression(2003)
    x[:, 2] = 4.25
    return x, y


def _wine_saturated():
    """Standardised wine training features with 24 cells read back saturated."""
    bench = elasticnet_benchmark(n_samples=1000, seed=17)
    fmt = FixedPointFormat(total_bits=32, frac_bits=16)
    features = np.array(bench.train_features)
    cells = np.random.default_rng(2008).choice(features.size, size=24, replace=False)
    features.flat[cells[:12]] = fmt.from_raw(fmt.max_raw)
    features.flat[cells[12:]] = fmt.from_raw(fmt.min_raw)
    return StandardScaler().fit_transform(features), np.array(bench.train_targets)


GOLDEN_CASES = {
    "ols-alpha-0": (lambda: _regression(2001), dict(alpha=0.0)),
    "ridge-l1-0": (lambda: _regression(2002), dict(alpha=0.5, l1_ratio=0.0)),
    "elastic-l1-half": (lambda: _regression(2002), dict(alpha=0.1, l1_ratio=0.5)),
    "lasso-l1-1": (lambda: _regression(2002), dict(alpha=0.1, l1_ratio=1.0)),
    "no-intercept": (lambda: _regression(2004), dict(alpha=0.05, fit_intercept=False)),
    "zero-variance-column": (_zero_variance_column, dict(alpha=0.05)),
    "max-iter-cap": (
        lambda: _regression(2005, correlated=True),
        dict(alpha=1e-4, max_iter=3, tol=1e-12),
    ),
    "wine-saturated": (_wine_saturated, dict(alpha=0.02, l1_ratio=0.5, max_iter=400)),
}

#: ``float.hex`` of every ``coef_`` entry and of ``intercept_``, plus
#: ``n_iter_``, per case: the fits of the plain NumPy coordinate update.
GOLDEN_FITS = {
    "ols-alpha-0": (
        [
            "0x1.7800428853cc8p+0",
            "0x1.c1543780a6e12p-1",
            "0x1.385bf63d7eba2p-2",
            "-0x1.7f3c0767ddee2p-2",
            "-0x1.effe62e013a08p-1",
        ],
        "0x1.4ebc4ac19e652p-2",
        8,
    ),
    "ridge-l1-0": (
        [
            "0x1.08ba5880ec206p+0",
            "0x1.17041804ec194p-1",
            "0x1.37b46422e7cebp-3",
            "-0x1.582b88637b166p-2",
            "-0x1.4fb55141062dbp-1",
        ],
        "0x1.f1a01bffc7195p-2",
        6,
    ),
    "elastic-l1-half": (
        [
            "0x1.5974a9f3c805fp+0",
            "0x1.8a0f4f5e67b31p-1",
            "0x1.6590791d1acbap-3",
            "-0x1.5a4c324165445p-2",
            "-0x1.d32f5f42ebaf3p-1",
        ],
        "0x1.8de03aab20f12p-2",
        8,
    ),
    "lasso-l1-1": (
        [
            "0x1.5c25e9a5e7838p+0",
            "0x1.868a897e80ae7p-1",
            "0x1.08c8867756117p-3",
            "-0x1.33e0674aaab23p-2",
            "-0x1.d895a0b9ef816p-1",
        ],
        "0x1.90ead528f020dp-2",
        8,
    ),
    "no-intercept": (
        [
            "0x1.81beb95981fcbp+0",
            "0x1.77067fd8d198bp-1",
            "0x1.191fcc0334e11p-2",
            "-0x1.c5752af881872p-2",
            "-0x1.e0d7c858c703bp-1",
        ],
        "0x0.0p+0",
        9,
    ),
    "zero-variance-column": (
        [
            "0x1.701ac2ed75463p+0",
            "0x1.7b49618a3adb6p-1",
            "0x0.0p+0",
            "-0x1.80a57c03a887bp-2",
            "-0x1.c91996442b112p-1",
        ],
        "0x1.84ca81ab32b02p-2",
        11,
    ),
    "max-iter-cap": (
        [
            "0x1.10507113b94c2p+0",
            "0x1.bcff38730e0e2p-3",
            "-0x1.d894696fa766bp-4",
            "-0x1.08c833a5832a1p-3",
            "-0x1.5eb8d558e7ee4p-3",
        ],
        "0x1.70e0d1d57c671p-2",
        3,
    ),
    "wine-saturated": (
        [
            "0x0.0p+0",
            "-0x1.18ba04f31bb5fp+0",
            "0x1.32d057906c929p-6",
            "-0x1.a75800149a117p-7",
            "0x0.0p+0",
            "0x0.0p+0",
            "-0x1.1b1af5d1ed3e0p-1",
            "-0x1.21aa5ca855f69p-6",
            "0x1.bece8fbccb482p-7",
            "0x1.13a9b081fbd7fp-8",
            "0x0.0p+0",
        ],
        "0x1.6666666666667p+2",
        23,
    ),
}


class TestBitIdentityGolden:
    """``fit`` reproduces the recorded coordinate-descent results bit for bit."""

    def test_every_case_has_a_golden(self):
        assert GOLDEN_CASES.keys() == GOLDEN_FITS.keys()

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_fit_matches_golden(self, name):
        data, parameters = GOLDEN_CASES[name]
        features, targets = data()
        model = ElasticNetRegressor(**parameters).fit(features, targets)
        coef, intercept, n_iter = GOLDEN_FITS[name]
        assert [value.hex() for value in model.coef_.tolist()] == coef
        assert float(model.intercept_).hex() == intercept
        assert model.n_iter_ == n_iter

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_every_golden_holds_on_each_backend(self, backend_name):
        for name, (data, parameters) in GOLDEN_CASES.items():
            features, targets = data()
            with use_backend(backend_name):
                model = ElasticNetRegressor(**parameters).fit(features, targets)
            coef, intercept, n_iter = GOLDEN_FITS[name]
            assert [value.hex() for value in model.coef_.tolist()] == coef, name
            assert float(model.intercept_).hex() == intercept, name
            assert model.n_iter_ == n_iter, name

    def test_max_iter_case_stops_at_the_cap(self):
        _, parameters = GOLDEN_CASES["max-iter-cap"]
        assert GOLDEN_FITS["max-iter-cap"][2] == parameters["max_iter"]

    def test_zero_variance_column_keeps_a_zero_weight(self):
        assert GOLDEN_FITS["zero-variance-column"][0][2] == "0x0.0p+0"
