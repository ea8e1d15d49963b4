"""Speed gate of the ElasticNet coordinate-descent fit (Fig. 7 retraining).

Retraining dominates a Fig. 7 quality sweep: every die refits the wine
benchmark's ElasticNet on training features read back from the faulty
memory.  ``test_elasticnet_fit_speedup`` times :meth:`ElasticNetRegressor.fit`
against :func:`_reference_fit`, a frozen copy of the earlier per-update NumPy
loop kept here as the oracle, on 100 seeded corrupted wine tensors at scale 1.
It gates two things:

* **bit identity** -- ``coef_``, ``intercept_`` and ``n_iter_`` equal the
  reference's exactly on every tensor;
* **>= 1.3x** -- the summed fit time of the reference over that of
  ``fit``, the median over rounds that alternate which side runs first, in
  one process, so the ratio does not depend on host speed.

``test_compiled_sweep_speedup`` times ``fit`` with the C kernel backend
against ``fit`` with the NumPy one on the same tensors: the compiled sweeps
must match the NumPy sweeps bit for bit and run ``fit`` >= 2.0x faster.
Where the C backend is unavailable it records why and skips.

With ``REPRO_BENCH_JSON`` set, one ``elasticnet_fit`` and one
``elasticnet_compiled_sweep`` record are appended.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro import kernels
from repro.apps.elasticnet import ElasticNetRegressor
from repro.apps.preprocessing import StandardScaler
from repro.core.no_protection import NoProtection
from repro.memory.faults import FaultMap
from repro.memory.organization import MemoryOrganization
from repro.sim.experiment import benchmark_by_name
from repro.sim.faulty_storage import FaultyTensorStore

N_TENSORS = 100
ROUNDS = 7
FAULT_COUNTS = (1, 4, 16, 64, 256)
#: The Fig. 7 application's hyperparameters (``_evaluate_elasticnet``).
FIT_PARAMETERS = dict(alpha=0.02, l1_ratio=0.5, max_iter=400, tol=1e-6)
MIN_SPEEDUP = 1.3
MIN_COMPILED_SPEEDUP = 2.0


def _reference_fit(features, targets, alpha, l1_ratio, max_iter, tol, fit_intercept=True):
    """The earlier ``ElasticNetRegressor.fit`` loop, frozen as the oracle.

    Returns ``(coef, intercept, n_iter)``.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    n_samples, n_features = features.shape
    if fit_intercept:
        x_mean = features.mean(axis=0)
        y_mean = float(targets.mean())
    else:
        x_mean = np.zeros(n_features)
        y_mean = 0.0
    x_centered = features - x_mean
    y_centered = targets - y_mean

    weights = np.zeros(n_features)
    residual = y_centered.copy()
    column_norms = (x_centered ** 2).sum(axis=0) / n_samples
    l1_penalty = alpha * l1_ratio
    l2_penalty = alpha * (1.0 - l1_ratio)

    def soft_threshold(value, threshold):
        if value > threshold:
            return value - threshold
        if value < -threshold:
            return value + threshold
        return 0.0

    n_iter = 0
    for iteration in range(max_iter):
        max_update = 0.0
        for j in range(n_features):
            if column_norms[j] == 0.0:
                continue
            old_weight = weights[j]
            rho = (x_centered[:, j] @ residual) / n_samples + column_norms[j] * old_weight
            new_weight = soft_threshold(rho, l1_penalty) / (column_norms[j] + l2_penalty)
            if new_weight != old_weight:
                residual += x_centered[:, j] * (old_weight - new_weight)
                weights[j] = new_weight
                max_update = max(max_update, abs(new_weight - old_weight))
        n_iter = iteration + 1
        if max_update < tol:
            break
    intercept = y_mean - float(x_mean @ weights) if fit_intercept else 0.0
    return weights, intercept, n_iter


def _corrupted_training_sets():
    """Standardised wine training features read back from seeded faulty dies."""
    benchmark = benchmark_by_name("elasticnet", scale=1.0)
    organization = MemoryOrganization.paper_16kb()
    rng = np.random.default_rng(0xF17)
    cases = []
    for index in range(N_TENSORS):
        count = FAULT_COUNTS[index % len(FAULT_COUNTS)]
        fault_map = FaultMap.random_with_count(organization, count, rng)
        store = FaultyTensorStore(organization, NoProtection(32), fault_map)
        corrupted = store.store_and_load(benchmark.train_features)
        scaled = StandardScaler().fit(corrupted).transform(corrupted)
        cases.append((scaled, np.asarray(benchmark.train_targets)))
    return cases


def _fit_all(cases):
    return [ElasticNetRegressor(**FIT_PARAMETERS).fit(x, y) for x, y in cases]


def _reference_all(cases):
    return [_reference_fit(x, y, **FIT_PARAMETERS) for x, y in cases]


def _seconds(run, cases):
    start = time.perf_counter()
    run(cases)
    return time.perf_counter() - start


def test_elasticnet_fit_speedup(json_summary):
    """``fit`` must match the frozen reference bit for bit and be >= 1.3x faster."""
    cases = _corrupted_training_sets()
    for model, (coef, intercept, n_iter) in zip(_fit_all(cases), _reference_all(cases)):
        assert [c.hex() for c in model.coef_.tolist()] == [c.hex() for c in coef.tolist()]
        assert model.intercept_.hex() == float(intercept).hex()
        assert model.n_iter_ == n_iter

    reference_seconds, fit_seconds = [], []
    for round_index in range(ROUNDS):
        if round_index % 2:
            fit_seconds.append(_seconds(_fit_all, cases))
            reference_seconds.append(_seconds(_reference_all, cases))
        else:
            reference_seconds.append(_seconds(_reference_all, cases))
            fit_seconds.append(_seconds(_fit_all, cases))
    speedup = statistics.median(
        reference / fit for reference, fit in zip(reference_seconds, fit_seconds)
    )
    json_summary(
        "elasticnet_fit",
        {
            "tensors": N_TENSORS,
            "rounds": ROUNDS,
            "reference_seconds": statistics.median(reference_seconds),
            "fit_seconds": statistics.median(fit_seconds),
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"ElasticNet fit is only {speedup:.2f}x the reference loop "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def _fit_seconds(backend, cases):
    with kernels.use_backend(backend):
        return _seconds(_fit_all, cases)


def test_compiled_sweep_speedup(json_summary):
    """C-backend ``fit`` must match NumPy-backend ``fit`` bit for bit and be >= 2x faster."""
    try:
        compiled = kernels._build("c")
    except kernels.KernelUnavailableError as exc:
        json_summary("elasticnet_compiled_sweep", {"tensors": N_TENSORS, "skipped": str(exc)})
        pytest.skip(f"C backend unavailable: {exc}")
    reference = kernels._build("numpy")
    cases = _corrupted_training_sets()
    with kernels.use_backend(reference):
        reference_models = _fit_all(cases)
    with kernels.use_backend(compiled):
        compiled_models = _fit_all(cases)
    for model, want in zip(compiled_models, reference_models):
        assert [c.hex() for c in model.coef_.tolist()] == [c.hex() for c in want.coef_.tolist()]
        assert model.intercept_.hex() == want.intercept_.hex()
        assert model.n_iter_ == want.n_iter_

    reference_seconds, compiled_seconds = [], []
    for round_index in range(ROUNDS):
        if round_index % 2:
            compiled_seconds.append(_fit_seconds(compiled, cases))
            reference_seconds.append(_fit_seconds(reference, cases))
        else:
            reference_seconds.append(_fit_seconds(reference, cases))
            compiled_seconds.append(_fit_seconds(compiled, cases))
    speedup = statistics.median(
        numpy_time / c_time for numpy_time, c_time in zip(reference_seconds, compiled_seconds)
    )
    json_summary(
        "elasticnet_compiled_sweep",
        {
            "tensors": N_TENSORS,
            "rounds": ROUNDS,
            "numpy_seconds": statistics.median(reference_seconds),
            "c_seconds": statistics.median(compiled_seconds),
            "speedup": speedup,
        },
    )
    assert speedup >= MIN_COMPILED_SPEEDUP, (
        f"C-backend fit is only {speedup:.2f}x the NumPy-backend fit "
        f"(need >= {MIN_COMPILED_SPEEDUP}x)"
    )
