"""Reusable statistical differential-test harness for stochastic fault sources.

Every stochastic source in the repo (the i.i.d. base model, the aged /
clustered scenario pipelines, and the per-read transient tier) makes two
kinds of promise that plain example-based tests cannot check:

* **distributional** -- the draws follow the distribution the docstring
  claims (a Bernoulli-per-cell fault map really has Binomial word fault
  counts; the soft-error stream really strikes Binomial(width, p) bits per
  word);
* **differential** -- independent implementations of the same contract
  (vectorized vs scalar, one worker vs many, shard order A vs shard order
  B) produce *bit-identical* results from the same seed.

This module packages both as small, seed-explicit helpers so a new
stochastic source can be wired into the suite with a few lines.  All
goodness-of-fit checks are run at a fixed, conservative level (0.999 by
default: reject only when the p-value drops below 1e-3) over several
disjoint seeds, so a correct implementation fails with probability on the
order of ``n_seeds * 1e-3`` -- effectively never in CI -- while real
distributional bugs (an off-by-one in the support, a reused stream, a
biased mask builder) are caught quickly.

The helpers deliberately return plain values and raise ``AssertionError``
with self-contained messages, so they work under pytest and in standalone
scripts (the CI smoke jobs call them directly).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

__all__ = [
    "DEFAULT_GOF_LEVEL",
    "assert_batched_matches_scalar",
    "assert_binomial_counts",
    "assert_chi_square_gof",
    "assert_mass_conserved",
    "assert_results_identical",
    "gof_seeds",
    "pooled_chi_square",
    "split_shards",
]

# Reject a goodness-of-fit test only below p = 1 - DEFAULT_GOF_LEVEL.  The
# issue's acceptance bar: the per-read SER stream must pass at the 0.999
# level for at least three seeds.
DEFAULT_GOF_LEVEL = 0.999

# Bins with expected counts below this are pooled before the chi-square
# statistic is formed; the asymptotic chi-square approximation is unreliable
# below ~5 expected observations per bin.
_MIN_EXPECTED = 5.0


def pooled_chi_square(
    observed: np.ndarray, expected: np.ndarray
) -> Tuple[float, float, int]:
    """Chi-square statistic, p-value, and dof after pooling sparse bins.

    Adjacent bins are merged (left to right) until every pooled bin has an
    expected count of at least 5, then the usual Pearson statistic is
    computed.  Raises ``ValueError`` when fewer than two pooled bins remain
    (no test is possible) or when the totals disagree by more than rounding.
    """
    observed = np.asarray(observed, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if observed.shape != expected.shape:
        raise ValueError(
            f"observed and expected must align: {observed.shape} vs {expected.shape}"
        )
    if not np.isclose(observed.sum(), expected.sum(), rtol=1e-6, atol=1e-6):
        raise ValueError(
            "observed and expected totals disagree "
            f"({observed.sum():g} vs {expected.sum():g}); normalise the "
            "expected distribution to the sample size first"
        )
    pooled_obs = []
    pooled_exp = []
    acc_obs = 0.0
    acc_exp = 0.0
    for obs, exp in zip(observed, expected):
        acc_obs += obs
        acc_exp += exp
        if acc_exp >= _MIN_EXPECTED:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0.0:
        if pooled_exp:
            pooled_obs[-1] += acc_obs
            pooled_exp[-1] += acc_exp
        else:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
    if len(pooled_exp) < 2:
        raise ValueError(
            "fewer than two bins remain after pooling (expected counts too "
            "small); draw a larger sample"
        )
    obs_arr = np.asarray(pooled_obs)
    exp_arr = np.asarray(pooled_exp)
    statistic = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    dof = len(exp_arr) - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return statistic, p_value, dof


def assert_chi_square_gof(
    observed: np.ndarray,
    expected: np.ndarray,
    *,
    level: float = DEFAULT_GOF_LEVEL,
    label: str = "sample",
) -> float:
    """Assert the observed histogram fits the expected one; return the p-value."""
    statistic, p_value, dof = pooled_chi_square(observed, expected)
    threshold = 1.0 - level
    assert p_value >= threshold, (
        f"chi-square goodness-of-fit rejected for {label}: "
        f"chi2={statistic:.3f} with {dof} dof gives p={p_value:.3g} "
        f"< {threshold:g} (level {level})"
    )
    return p_value


def assert_binomial_counts(
    counts: np.ndarray,
    n_trials: int,
    probability: float,
    *,
    level: float = DEFAULT_GOF_LEVEL,
    label: str = "counts",
) -> float:
    """Assert integer ``counts`` are Binomial(n_trials, probability) draws.

    Builds the exact Binomial pmf over the full support, scales it to the
    sample size, and runs the pooled chi-square test.  This is the workhorse
    for per-word flip counts: under the soft-error draw scheme each word's
    flip count is exactly Binomial(word_width, p).
    """
    counts = np.asarray(counts)
    if counts.size == 0:
        raise ValueError("cannot test an empty sample")
    if np.any(counts < 0) or np.any(counts > n_trials):
        raise AssertionError(
            f"{label} outside the Binomial support [0, {n_trials}]: "
            f"min={counts.min()}, max={counts.max()}"
        )
    support = np.arange(n_trials + 1)
    observed = np.bincount(counts.astype(np.int64), minlength=n_trials + 1)
    expected = stats.binom.pmf(support, n_trials, probability) * counts.size
    return assert_chi_square_gof(observed, expected, level=level, label=label)


def assert_batched_matches_scalar(
    batched: Callable[[np.random.Generator], np.ndarray],
    scalar: Callable[[np.random.Generator], np.ndarray],
    *,
    seeds: Iterable[int],
    label: str = "implementation pair",
) -> None:
    """Assert two implementations are bit-identical over every seed.

    Each callable receives a *fresh* generator seeded from the same
    ``SeedSequence``, so both consume the identical stream; the outputs must
    match exactly (``array_equal``, no tolerance -- the repo's contract is
    bit-identity, not closeness).
    """
    for seed in seeds:
        lhs = batched(np.random.default_rng(np.random.SeedSequence(seed)))
        rhs = scalar(np.random.default_rng(np.random.SeedSequence(seed)))
        lhs_arr = np.asarray(lhs)
        rhs_arr = np.asarray(rhs)
        assert lhs_arr.dtype == rhs_arr.dtype and lhs_arr.shape == rhs_arr.shape, (
            f"{label}: seed {seed} shapes/dtypes diverge "
            f"({lhs_arr.dtype}{lhs_arr.shape} vs {rhs_arr.dtype}{rhs_arr.shape})"
        )
        if not np.array_equal(lhs_arr, rhs_arr):
            first = int(np.flatnonzero(lhs_arr.ravel() != rhs_arr.ravel())[0])
            raise AssertionError(
                f"{label}: seed {seed} diverges at flat index {first}: "
                f"{lhs_arr.ravel()[first]!r} != {rhs_arr.ravel()[first]!r}"
            )


def assert_mass_conserved(
    before: np.ndarray,
    after: np.ndarray,
    *,
    label: str = "fault mass",
    direction: str = "equal",
) -> None:
    """Assert total fault mass is conserved (or only reduced) by a transform.

    ``direction="equal"`` demands exact conservation (a relabelling transform
    such as aging or clustering must not create or destroy faults);
    ``direction="non-increasing"`` allows repair stages (scrubbing, spare
    rows) to remove mass but never add it.
    """
    mass_before = int(np.sum(np.asarray(before, dtype=np.int64)))
    mass_after = int(np.sum(np.asarray(after, dtype=np.int64)))
    if direction == "equal":
        assert mass_before == mass_after, (
            f"{label} not conserved: {mass_before} before vs {mass_after} after"
        )
    elif direction == "non-increasing":
        assert mass_after <= mass_before, (
            f"{label} increased: {mass_before} before vs {mass_after} after "
            "(a repair stage must never add faults)"
        )
    else:  # pragma: no cover - defensive
        raise ValueError(f"unknown direction {direction!r}")


def assert_results_identical(
    results: Dict[object, Dict[str, np.ndarray]],
    *,
    label: str = "worker configurations",
    baseline_key: Optional[object] = None,
) -> None:
    """Assert every configuration produced byte-identical result series.

    ``results`` maps a configuration key (worker count, shard order tag) to a
    dict of named float arrays -- e.g. each scheme's CDF series.  All entries
    must match the baseline exactly; the failure message names the first
    diverging configuration, series, and index.
    """
    if len(results) < 2:
        raise ValueError("need at least two configurations to compare")
    keys = list(results)
    base_key = baseline_key if baseline_key is not None else keys[0]
    baseline = results[base_key]
    for key in keys:
        if key == base_key:
            continue
        candidate = results[key]
        assert set(candidate) == set(baseline), (
            f"{label}: {key!r} produced series {sorted(map(str, candidate))} "
            f"but {base_key!r} produced {sorted(map(str, baseline))}"
        )
        for name, base_series in baseline.items():
            cand_series = np.asarray(candidate[name])
            base_arr = np.asarray(base_series)
            if not np.array_equal(base_arr, cand_series):
                diverging = np.flatnonzero(base_arr.ravel() != cand_series.ravel())
                first = int(diverging[0]) if diverging.size else -1
                raise AssertionError(
                    f"{label}: {key!r} diverges from {base_key!r} in series "
                    f"{name!r} at index {first}"
                )


def split_shards(monkeypatch, *, size: int = 1, seed: Optional[int] = None) -> None:
    """Make every fixed-budget :class:`~repro.sim.engine.SweepEngine` sweep
    cut its pending dies into ``size``-die shards, dispatched in an order
    shuffled by ``seed`` (plan order when ``seed`` is ``None``).

    The differential partner of the engine's default shard layout: a sweep
    must give bit-identical results for any partition and dispatch order.
    """
    from repro.sim.engine import SweepEngine

    def make_shards(entries, workers):
        shards = [entries[i:i + size] for i in range(0, len(entries), size)]
        if seed is not None:
            order = np.random.default_rng(seed).permutation(len(shards))
            shards = [shards[i] for i in order]
        return shards

    monkeypatch.setattr(SweepEngine, "_make_shards", staticmethod(make_shards))


def gof_seeds(n_seeds: int = 3, *, start: int = 1000) -> Sequence[int]:
    """Disjoint, stable seeds for repeated goodness-of-fit runs."""
    return tuple(range(start, start + n_seeds))
