"""Benchmark definitions: the rows of Table 1.

Each :class:`BenchmarkDefinition` binds together a dataset generator, a
learning algorithm, and the quality metric the paper reports for it, and
knows how to evaluate itself when its training features have been corrupted by
the faulty memory.  Three standard benchmarks mirror Table 1:

=====================  ========================  =====================
Algorithm              Dataset analogue          Quality metric
=====================  ========================  =====================
Elasticnet             wine-quality-like         R^2
PCA                    madelon-like              explained variance
K-Nearest Neighbours   activity-recognition-like classification score
=====================  ========================  =====================
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, fields
from typing import Callable, Dict, Optional

import numpy as np

from repro.apps.datasets import (
    Dataset,
    make_activity_recognition,
    make_madelon_like,
    make_wine_quality_like,
)
from repro.apps.elasticnet import ElasticNetRegressor
from repro.apps.knn import KNearestNeighbors
from repro.apps.pca import PrincipalComponentAnalysis
from repro.apps.preprocessing import StandardScaler, train_test_split

__all__ = [
    "BenchmarkDefinition",
    "benchmark_by_name",
    "elasticnet_benchmark",
    "pca_benchmark",
    "knn_benchmark",
    "standard_benchmarks",
]

#: Retrain results one benchmark remembers; the oldest entry is evicted
#: beyond this.  A budgeted optimizer run fits about a thousand distinct
#: tensors per benchmark, so it never evicts.
_RETRAIN_MEMO_MAX_ENTRIES = 4096

_DATA_FIELDS = ("train_features", "train_targets", "test_features", "test_targets")


@dataclass(frozen=True)
class BenchmarkDefinition:
    """A Table 1 benchmark: dataset split plus a train-and-score procedure.

    Attributes
    ----------
    name:
        Benchmark identifier (``"elasticnet"``, ``"pca"``, ``"knn"``).
    metric_name:
        Name of the quality metric the evaluation returns.
    train_features / train_targets:
        The training partition; the *features* are what gets stored in the
        faulty memory.
    test_features / test_targets:
        The clean held-out partition used to measure output quality.
    evaluate:
        Callable ``evaluate(train_features, train_targets, test_features,
        test_targets) -> float`` that trains the algorithm on (possibly
        corrupted) training features and returns the quality metric.  It
        must be deterministic: the results are memoised (see below).

    Retraining dominates a quality sweep, and many dies return the same
    corrupted tensor (an ECC that corrects every fault returns the clean
    one).  So the instance memoises :meth:`clean_quality` and, per
    corrupted tensor, :meth:`quality_with_corrupted_features`, keyed by the
    sha256 of the tensor's float64 bytes.  A hit returns exactly the float a
    refit would.  The memo lives as long as the instance -- across every
    sweep that shares it -- and is bounded by
    :data:`_RETRAIN_MEMO_MAX_ENTRIES` with first-in first-out eviction.  To
    keep it exact, the instance is frozen and its four data arrays are made
    read-only at construction.  The memo takes no part in ``==``,
    ``repr`` or pickling: an unpickled copy starts with an empty one.
    """

    name: str
    metric_name: str
    train_features: np.ndarray
    train_targets: np.ndarray
    test_features: np.ndarray
    test_targets: np.ndarray
    evaluate: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], float]

    def __post_init__(self) -> None:
        for name in _DATA_FIELDS:
            array = np.asarray(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "_clean_quality", None)
        object.__setattr__(self, "_retrain_memo", {})
        object.__setattr__(self, "_memo_lock", threading.Lock())

    def __reduce__(self):
        # Rebuild through __init__, so the copy starts with an empty memo and
        # read-only arrays (pickle does not keep the writeable flag).
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def clean_quality(self) -> float:
        """Quality obtained with uncorrupted training data (the normalisation point)."""
        clean: Optional[float] = self._clean_quality
        if clean is None:
            clean = self.evaluate(
                self.train_features,
                self.train_targets,
                self.test_features,
                self.test_targets,
            )
            object.__setattr__(self, "_clean_quality", clean)
        return clean

    def quality_with_corrupted_features(self, corrupted_features: np.ndarray) -> float:
        """Quality obtained when the stored training features came back corrupted."""
        corrupted_features = np.ascontiguousarray(corrupted_features, dtype=np.float64)
        if corrupted_features.shape != self.train_features.shape:
            raise ValueError(
                "corrupted features must have the same shape as the training features"
            )
        memo = self._retrain_memo
        key = hashlib.sha256(corrupted_features).digest()
        quality = memo.get(key)
        if quality is None:
            quality = self.evaluate(
                corrupted_features,
                self.train_targets,
                self.test_features,
                self.test_targets,
            )
            with self._memo_lock:
                if len(memo) >= _RETRAIN_MEMO_MAX_ENTRIES:
                    memo.pop(next(iter(memo)))
                memo[key] = quality
        return quality


def _evaluate_elasticnet(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    test_features: np.ndarray,
    test_targets: np.ndarray,
) -> float:
    scaler = StandardScaler().fit(train_features)
    model = ElasticNetRegressor(alpha=0.02, l1_ratio=0.5, max_iter=400)
    model.fit(scaler.transform(train_features), train_targets)
    return model.score(scaler.transform(test_features), test_targets)


def _evaluate_pca(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    test_features: np.ndarray,
    test_targets: np.ndarray,
) -> float:
    del train_targets, test_targets  # PCA is unsupervised
    model = PrincipalComponentAnalysis(n_components=10)
    model.fit(train_features)
    return model.explained_variance_score(test_features)


def _evaluate_knn(
    train_features: np.ndarray,
    train_targets: np.ndarray,
    test_features: np.ndarray,
    test_targets: np.ndarray,
) -> float:
    scaler = StandardScaler().fit(train_features)
    model = KNearestNeighbors(n_neighbors=5)
    model.fit(scaler.transform(train_features), train_targets.astype(np.int64))
    return model.score(scaler.transform(test_features), test_targets.astype(np.int64))


def _split(dataset: Dataset, rng: np.random.Generator):
    return train_test_split(
        dataset.features, dataset.targets, train_fraction=0.8, rng=rng
    )


def elasticnet_benchmark(
    n_samples: int = 1000, seed: int = 7
) -> BenchmarkDefinition:
    """Elasticnet regression on the wine-quality-like dataset (metric: R^2)."""
    rng = np.random.default_rng(seed)
    dataset = make_wine_quality_like(n_samples=n_samples, rng=rng)
    x_train, x_test, y_train, y_test = _split(dataset, rng)
    return BenchmarkDefinition(
        name="elasticnet",
        metric_name="r2",
        train_features=x_train,
        train_targets=y_train,
        test_features=x_test,
        test_targets=y_test,
        evaluate=_evaluate_elasticnet,
    )


def pca_benchmark(
    n_samples: int = 600, n_noise: int = 100, seed: int = 11
) -> BenchmarkDefinition:
    """PCA on the madelon-like dataset (metric: explained variance)."""
    rng = np.random.default_rng(seed)
    dataset = make_madelon_like(n_samples=n_samples, n_noise=n_noise, rng=rng)
    x_train, x_test, y_train, y_test = _split(dataset, rng)
    return BenchmarkDefinition(
        name="pca",
        metric_name="explained_variance",
        train_features=x_train,
        train_targets=y_train,
        test_features=x_test,
        test_targets=y_test,
        evaluate=_evaluate_pca,
    )


def knn_benchmark(n_samples: int = 900, seed: int = 13) -> BenchmarkDefinition:
    """KNN activity recognition (metric: classification score)."""
    rng = np.random.default_rng(seed)
    dataset = make_activity_recognition(n_samples=n_samples, rng=rng)
    x_train, x_test, y_train, y_test = _split(dataset, rng)
    return BenchmarkDefinition(
        name="knn",
        metric_name="score",
        train_features=x_train,
        train_targets=y_train,
        test_features=x_test,
        test_targets=y_test,
        evaluate=_evaluate_knn,
    )


#: Benchmark names accepted by :func:`benchmark_by_name` (Table 1 order).
BENCHMARK_NAMES = ("elasticnet", "pca", "knn")


def benchmark_by_name(
    name: str, scale: float = 1.0, seed: int = 17
) -> BenchmarkDefinition:
    """Build one Table 1 benchmark by name (case-insensitive), at the
    standard sizing.

    Seeds and sample counts follow :func:`standard_benchmarks` exactly, so
    ``benchmark_by_name(name, scale, seed)`` equals
    ``standard_benchmarks(scale, seed)[name]`` without constructing the other
    two benchmarks.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    key = str(name).strip().lower()
    if key == "elasticnet":
        return elasticnet_benchmark(n_samples=max(int(1000 * scale), 50), seed=seed)
    if key == "pca":
        return pca_benchmark(
            n_samples=max(int(600 * scale), 50),
            n_noise=max(int(100 * scale), 10),
            seed=seed + 1,
        )
    if key == "knn":
        return knn_benchmark(n_samples=max(int(900 * scale), 50), seed=seed + 2)
    raise ValueError(
        f"unknown benchmark {name!r}; expected one of {', '.join(BENCHMARK_NAMES)}"
    )


def standard_benchmarks(
    scale: float = 1.0, seed: int = 17
) -> Dict[str, BenchmarkDefinition]:
    """The three Table 1 benchmarks, optionally scaled down for quick runs.

    ``scale`` multiplies the default sample counts (0.25 gives a fast smoke
    configuration; 1.0 matches the default experiment sizes).
    """
    return {
        name: benchmark_by_name(name, scale=scale, seed=seed)
        for name in BENCHMARK_NAMES
    }
