"""Property tests for the streaming-summary algebra (`repro.stats`).

The adaptive sweeps stand on three algebraic claims, checked here across
moments, sketches, the stratified yield state, and the exact buffer:

* ``merge`` is associative and commutative (exactly for the integer state --
  counts, bin tallies, extrema -- and up to floating-point rounding for the
  running means/variances);
* updating in batches, in any partition, equals one-shot construction;
* ``to_dict`` / ``from_dict`` round-trip the state exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quality.cdf import WeightedEcdf
from repro.stats import (
    FixedGridEcdfSketch,
    StratifiedYield,
    StreamingMoments,
    StreamingSummary,
    WeightedSampleBuffer,
    largest_remainder_allocation,
    normal_critical_value,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(finite_floats, min_size=1, max_size=40)


# Every float64 class: signed zeros, subnormals, infinities and nan.
any_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan]
    ),
)


def _bits(value: float) -> str:
    """A float's exact bits as text; every nan reads ``"nan"``."""
    return "nan" if math.isnan(value) else float.hex(value)


def _moments_bits(moments: StreamingMoments):
    return (moments.count,) + tuple(
        _bits(x) for x in (moments.mean, moments.m2, moments.minimum, moments.maximum)
    )


def _moments_from(values) -> StreamingMoments:
    moments = StreamingMoments()
    moments.update_batch(values)
    return moments


def _sketch_from(values, edges=None) -> FixedGridEcdfSketch:
    sketch = FixedGridEcdfSketch(
        np.linspace(-1e6, 1e6, 65) if edges is None else edges
    )
    sketch.update_batch(values)
    return sketch


def _assert_moments_close(a: StreamingMoments, b: StreamingMoments) -> None:
    assert a.count == b.count
    assert a.minimum == b.minimum
    assert a.maximum == b.maximum
    assert a.mean == pytest.approx(b.mean, rel=1e-9, abs=1e-9)
    # m2 is a sum of squared deviations; compare on the variance scale.
    assert a.variance() == pytest.approx(b.variance(), rel=1e-6, abs=1e-6)


class TestProtocol:
    @pytest.mark.parametrize(
        "summary",
        [
            StreamingMoments(),
            FixedGridEcdfSketch.linear(0.0, 1.0, 8),
            WeightedSampleBuffer(),
        ],
    )
    def test_summaries_satisfy_protocol(self, summary):
        assert isinstance(summary, StreamingSummary)


class TestStreamingMoments:
    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes(self, left, right):
        ab = _moments_from(left)
        ab.merge(_moments_from(right))
        ba = _moments_from(right)
        ba.merge(_moments_from(left))
        _assert_moments_close(ab, ba)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_associates(self, a, b, c):
        left = _moments_from(a)
        left.merge(_moments_from(b))
        left.merge(_moments_from(c))
        bc = _moments_from(b)
        bc.merge(_moments_from(c))
        right = _moments_from(a)
        right.merge(bc)
        _assert_moments_close(left, right)

    @given(value_lists, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_batched_update_equals_one_shot(self, values, n_chunks):
        one_shot = _moments_from(values)
        chunked = StreamingMoments()
        for chunk in np.array_split(np.asarray(values, dtype=np.float64), n_chunks):
            chunked.update_batch(chunk)
        _assert_moments_close(one_shot, chunked)
        reference = np.asarray(values, dtype=np.float64)
        assert chunked.mean == pytest.approx(reference.mean(), rel=1e-9, abs=1e-9)
        if reference.size > 1:
            assert chunked.variance() == pytest.approx(
                reference.var(ddof=1), rel=1e-6, abs=1e-6
            )

    def test_merge_with_empty_is_identity(self):
        moments = _moments_from([1.0, 2.0, 5.0])
        before = moments.to_dict()
        moments.merge(StreamingMoments())
        assert moments.to_dict() == before
        empty = StreamingMoments()
        empty.merge(_moments_from([1.0, 2.0, 5.0]))
        assert empty.to_dict() == before

    def test_constant_stream_has_zero_variance(self):
        moments = StreamingMoments()
        for _ in range(5):
            moments.update_batch([3.25, 3.25])
        assert moments.variance() == 0.0
        assert moments.std() == 0.0

    @given(value_lists)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_is_exact(self, values):
        moments = _moments_from(values)
        payload = json.loads(json.dumps(moments.to_dict()))
        restored = StreamingMoments.from_dict(payload)
        assert restored.to_dict() == moments.to_dict()
        assert restored.mean == moments.mean
        assert restored.m2 == moments.m2

    @given(
        st.lists(st.lists(any_floats, max_size=6), max_size=3),
        st.lists(any_floats, min_size=1, max_size=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_update_equals_a_batch_of_one_bit_for_bit(self, start, values):
        # Both accumulators absorb the same random batches first, then the
        # same values one at a time by either method.
        single, batched = StreamingMoments(), StreamingMoments()
        with np.errstate(all="ignore"):
            for batch in start:
                single.update_batch(batch)
                batched.update_batch(batch)
            for value in values:
                single.update(value)
                batched.update_batch([value])
                assert _moments_bits(single) == _moments_bits(batched)

    def test_finalize_fields(self):
        result = _moments_from([2.0, 4.0, 6.0]).finalize()
        assert result.count == 3
        assert result.mean == pytest.approx(4.0)
        assert result.variance == pytest.approx(4.0)
        assert result.std == pytest.approx(2.0)
        assert (result.minimum, result.maximum) == (2.0, 6.0)


class TestFixedGridEcdfSketch:
    @given(value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_commutes_exactly(self, left, right):
        ab = _sketch_from(left)
        ab.merge(_sketch_from(right))
        ba = _sketch_from(right)
        ba.merge(_sketch_from(left))
        # Bin tallies are plain additions of equal terms: exact equality.
        assert np.array_equal(ab.counts, ba.counts)
        assert ab.count == ba.count
        assert (ab.minimum, ab.maximum) == (ba.minimum, ba.maximum)

    @given(value_lists, value_lists, value_lists)
    @settings(max_examples=60, deadline=None)
    def test_merge_associates_exactly(self, a, b, c):
        left = _sketch_from(a)
        left.merge(_sketch_from(b))
        left.merge(_sketch_from(c))
        bc = _sketch_from(b)
        bc.merge(_sketch_from(c))
        right = _sketch_from(a)
        right.merge(bc)
        assert np.array_equal(left.counts, right.counts)
        assert left.count == right.count

    @given(value_lists, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_batched_update_equals_one_shot(self, values, n_chunks):
        one_shot = _sketch_from(values)
        chunked = FixedGridEcdfSketch(np.linspace(-1e6, 1e6, 65))
        for chunk in np.array_split(np.asarray(values, dtype=np.float64), n_chunks):
            chunked.update_batch(chunk)
        assert np.array_equal(one_shot.counts, chunked.counts)
        assert one_shot.count == chunked.count
        assert one_shot.minimum == chunked.minimum
        assert one_shot.maximum == chunked.maximum

    def test_cdf_exact_at_grid_edges(self):
        sketch = FixedGridEcdfSketch([0.0, 1.0, 2.0, 3.0])
        values = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5]
        sketch.update_batch(values)
        reference = np.asarray(values)
        for edge in (0.0, 1.0, 2.0, 3.0):
            assert sketch.probability_at_most(edge) == pytest.approx(
                float(np.mean(reference <= edge))
            )

    def test_mismatched_grids_refuse_to_merge(self):
        with pytest.raises(ValueError, match="grids"):
            FixedGridEcdfSketch.linear(0, 1, 8).merge(
                FixedGridEcdfSketch.linear(0, 2, 8)
            )

    def test_support_stays_within_observed_data(self):
        sketch = FixedGridEcdfSketch.linear(0.0, 10.0, 10)
        sketch.update_batch([-3.5, 0.2, 9.1, 17.25])
        support, weights = sketch.finalize()
        assert support[0] == -3.5  # exact observed minimum (underflow bin)
        assert support[-1] == 17.25  # exact observed maximum (overflow bin)
        assert weights.sum() == pytest.approx(4.0)

    def test_quantile_matches_weighted_ecdf_on_grid_values(self):
        # With every observation on a grid edge, the sketch is lossless and
        # must agree with the exact WeightedEcdf everywhere.
        edges = np.linspace(0.0, 1.0, 21)
        rng = np.random.default_rng(5)
        values = rng.choice(edges, size=200)
        sketch = FixedGridEcdfSketch(edges)
        sketch.update_batch(values)
        exact = WeightedEcdf(values)
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) == pytest.approx(exact.quantile(q))

    def test_payload_is_o_bins_not_o_samples(self):
        small = FixedGridEcdfSketch.linear(0.0, 1.0, 64)
        big = FixedGridEcdfSketch.linear(0.0, 1.0, 64)
        rng = np.random.default_rng(11)
        small.update_batch(rng.random(10))
        big.update_batch(rng.random(100_000))
        assert big.payload_scalars() == small.payload_scalars()

    @given(value_lists)
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_is_exact(self, values):
        sketch = _sketch_from(values)
        payload = json.loads(json.dumps(sketch.to_dict()))
        restored = FixedGridEcdfSketch.from_dict(payload)
        assert np.array_equal(restored.counts, sketch.counts)
        assert restored.count == sketch.count
        assert (restored.minimum, restored.maximum) == (
            sketch.minimum,
            sketch.maximum,
        )

    def test_log_grid_requires_positive_bounds(self):
        with pytest.raises(ValueError):
            FixedGridEcdfSketch.log10(0.0, 1.0, 8)

    def test_negative_weights_rejected(self):
        sketch = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="non-negative"):
            sketch.update_batch([0.25, 0.5], weights=[1.0, -0.5])
        with pytest.raises(ValueError, match="non-negative"):
            sketch.update_batch([0.25], weights=-1.0)
        assert sketch.count == 0  # a rejected batch absorbs nothing

    def test_nan_values_rejected(self):
        # A nan has no bin; absorbed, it would leave the minimum at inf and
        # the maximum at -inf, and finalize() would put the overflow at -inf.
        sketch = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="nan"):
            sketch.update_batch([np.nan, 0.5, 3.0])
        with pytest.raises(ValueError, match="nan"):
            sketch.update_batch([0.5], weights=0.0)
            sketch.update_batch([np.nan])
        assert sketch.count == 1  # only the finite batch was absorbed
        assert (sketch.minimum, sketch.maximum) == (0.5, 0.5)
        support, weights = sketch.finalize()
        assert np.isfinite(support).all()

    def test_empty_sketch_quantile_error(self):
        sketch = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        with pytest.raises(ValueError, match="empty sketch"):
            sketch.quantile(0.5)

    def test_zero_total_mass_quantile_error_names_the_cause(self):
        # count distinguishes "never updated" from "updated with zero mass":
        # the latter is a caller bug (e.g. all-zero stratum probabilities)
        # and gets its own diagnosis instead of the empty-sketch message.
        sketch = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        sketch.update_batch([0.25, 0.5, 0.75], weights=0.0)
        assert sketch.count == 3
        assert sketch.total_weight == 0.0
        with pytest.raises(ValueError, match="zero total mass"):
            sketch.quantile(0.5)

    def test_zero_weight_observations_still_track_extrema(self):
        sketch = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        sketch.update_batch([-2.0, 3.0], weights=0.0)
        sketch.update_batch([0.5], weights=2.0)
        assert (sketch.minimum, sketch.maximum) == (-2.0, 3.0)
        assert sketch.total_weight == pytest.approx(2.0)
        assert sketch.quantile(0.5) == pytest.approx(0.5)

    @given(
        st.lists(
            st.tuples(
                st.floats(
                    min_value=-1e3,
                    max_value=1e3,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=30,
        ),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_updates_merge_and_match_one_shot(self, pairs, n_chunks):
        values = [v for v, _w in pairs]
        weights = [w for _v, w in pairs]
        edges = np.linspace(-1e3, 1e3, 33)
        one_shot = FixedGridEcdfSketch(edges)
        one_shot.update_batch(values, weights=weights)

        merged = FixedGridEcdfSketch(edges)
        for chunk in np.array_split(np.arange(len(values)), n_chunks):
            part = FixedGridEcdfSketch(edges)
            if chunk.size:
                part.update_batch(
                    [values[i] for i in chunk], [weights[i] for i in chunk]
                )
            merged.merge(part)

        assert merged.count == one_shot.count
        # Weighted tallies are float sums, so chunked accumulation matches
        # one-shot only up to summation-order rounding (exact equality is
        # the *unit-weight* contract tested above).
        np.testing.assert_allclose(
            merged.counts, one_shot.counts, rtol=1e-12, atol=1e-12
        )
        assert merged.total_weight == pytest.approx(one_shot.total_weight)
        if one_shot.total_weight > 0:
            for edge in (-1e3, 0.0, 1e3):
                assert merged.probability_at_most(edge) == pytest.approx(
                    one_shot.probability_at_most(edge)
                )
        else:
            with pytest.raises(ValueError, match="zero total mass"):
                one_shot.quantile(0.5)


_EDGES = np.linspace(-1e6, 1e6, 65)


def _summary(cells, scheme=0):
    """A shard summary of one scheme's ``(stratum, values)`` cells."""
    return [
        ((scheme, stratum), _moments_from(values), _sketch_from(values, _EDGES))
        for stratum, values in cells
    ]


def _state_from(weights, *schemes) -> StratifiedYield:
    """A state over ``len(schemes)`` schemes that folded each scheme's
    ``(stratum, values)`` cells as one shard summary."""
    state = StratifiedYield(weights, len(schemes), _EDGES)
    for si, cells in enumerate(schemes):
        state.fold(_summary(cells, si))
    return state


class TestStratumVarianceTracker:
    """:class:`StratifiedYield`: the adaptive round state and its answers."""

    WEIGHTS = {1: 0.5, 2: 0.3, 3: 0.2}

    @given(
        st.lists(
            st.tuples(st.sampled_from([1, 2, 3]), value_lists),
            min_size=0,
            max_size=6,
        ),
        st.lists(
            st.tuples(st.sampled_from([1, 2, 3]), value_lists),
            min_size=0,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_commutes(self, left, right):
        # Folding two shard summaries in either order gives the same state.
        ab = _state_from(self.WEIGHTS, left)
        ab.fold(_summary(right))
        ba = _state_from(self.WEIGHTS, right)
        ba.fold(_summary(left))
        for key in self.WEIGHTS:
            _assert_moments_close(ab.moments[0][key], ba.moments[0][key])
            assert ab.sketches[(0, key)].to_dict() == ba.sketches[(0, key)].to_dict()

    def test_batched_update_equals_one_shot(self):
        # One summary per stratum, or each stratum folded in four shards.
        rng = np.random.default_rng(3)
        values = {k: rng.normal(size=30) for k in self.WEIGHTS}
        one_shot = _state_from(self.WEIGHTS, list(values.items()))
        chunked = StratifiedYield(self.WEIGHTS, 1, _EDGES)
        for k, v in values.items():
            for chunk in np.array_split(v, 4):
                chunked.fold(_summary([(k, chunk)]))
        for key in self.WEIGHTS:
            _assert_moments_close(one_shot.moments[0][key], chunked.moments[0][key])
        assert one_shot.estimate(0) == pytest.approx(chunked.estimate(0))
        assert one_shot.half_width(0) == pytest.approx(
            chunked.half_width(0), rel=1e-6
        )

    def test_stratified_estimate_and_half_width(self):
        state = _state_from(
            {1: 0.6, 2: 0.4},
            [
                (1, [1.0, 1.0, 0.0, 0.0]),  # mean .5, var 1/3
                (2, [1.0, 1.0, 1.0, 1.0]),  # mean 1, var 0
            ],
        )
        assert state.estimate(0) == pytest.approx(0.6 * 0.5 + 0.4 * 1.0)
        assert state.estimate(0, baseline=0.1) == pytest.approx(
            0.1 + 0.6 * 0.5 + 0.4 * 1.0
        )
        expected_var = 0.6**2 * (1.0 / 3.0) / 4
        z = normal_critical_value(0.95)
        assert state.half_width(0, 0.95) == pytest.approx(
            z * math.sqrt(expected_var)
        )

    def test_neyman_allocation_targets_high_variance_strata(self):
        state = _state_from(
            {1: 0.5, 2: 0.5},
            [
                (1, [0.0, 1.0, 0.0, 1.0]),  # noisy stratum
                (2, [1.0, 1.0, 1.0, 1.0]),  # settled stratum
            ],
        )
        assert state.allocate(10) == {1: 10, 2: 0}

    def test_allocation_sums_scores_over_trackers(self):
        # The first scheme is settled in stratum 1, the second is noisy in
        # both: the split follows w_n * s_n summed over the two schemes.
        first = [(1, [1.0, 1.0, 1.0, 1.0]), (2, [0.0, 1.0, 0.0, 1.0])]
        second = [(1, [0.0, 1.0, 0.0, 1.0]), (2, [0.0, 1.0, 0.0, 1.0])]
        weights = {1: 0.5, 2: 0.5}
        assert _state_from(weights, first, second).allocate(12) == {1: 4, 2: 8}
        assert _state_from(weights, first).allocate(12) == {1: 0, 2: 12}

    def test_allocation_rejects_trackers_with_different_strata(self):
        with pytest.raises(ValueError, match="at least one stratum"):
            StratifiedYield({}, 1, _EDGES)
        with pytest.raises(ValueError, match="at least one scheme"):
            StratifiedYield({1: 1.0}, 0, _EDGES)
        # A checkpoint saved over other strata, or for another scheme
        # count, does not load.
        saved = json.loads(json.dumps(_state_from({2: 1.0}, []).to_dict()))
        with pytest.raises(ValueError, match="no weight"):
            StratifiedYield({1: 1.0}, 1, _EDGES).restore(saved)
        with pytest.raises(ValueError, match="tracks 1 schemes, expected 2"):
            StratifiedYield({2: 1.0}, 2, _EDGES).restore(saved)

    def test_allocation_conserves_batch_and_is_deterministic(self):
        scores = {1: 0.31, 2: 0.17, 3: 0.52}
        for batch in (0, 1, 7, 64):
            allocation = largest_remainder_allocation(scores, batch)
            assert sum(allocation.values()) == batch
            assert allocation == largest_remainder_allocation(scores, batch)

    def test_all_zero_scores_fall_back_to_uniform(self):
        assert largest_remainder_allocation({1: 0.0, 2: 0.0}, 4) == {1: 2, 2: 2}

    def test_mismatched_strata_refuse_to_merge(self):
        state = StratifiedYield({1: 1.0}, 1, _EDGES)
        with pytest.raises(KeyError):
            state.fold(_summary([(2, [1.0])]))
        with pytest.raises(ValueError, match="different grids"):
            state.fold(
                [((0, 1), _moments_from([1.0]), _sketch_from([1.0], _EDGES[::2]))]
            )

    def test_json_round_trip_is_exact(self):
        state = _state_from(self.WEIGHTS, [(1, [0.5, 0.25]), (3, [2.0])])
        state.end_round({1: 2, 2: 0, 3: 1})
        payload = json.loads(json.dumps(state.to_dict()))
        restored = StratifiedYield(self.WEIGHTS, 1, _EDGES)
        restored.restore(payload)
        assert json.dumps(restored.to_dict()) == json.dumps(state.to_dict())
        assert restored.estimate(0) == state.estimate(0)
        assert (restored.rounds, restored.total_dies) == (1, 3)

    def test_from_dict_rejects_a_stratum_without_weight(self):
        state = _state_from(self.WEIGHTS, [(1, [0.5, 0.25]), (3, [2.0])])
        payload = state.to_dict()
        payload["trackers"][0]["strata"]["7"] = StreamingMoments().to_dict()
        with pytest.raises(ValueError, match="^saved stratum 7 has no weight$"):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)

    def test_from_dict_rejects_a_weighted_stratum_without_moments(self):
        state = _state_from(self.WEIGHTS, [(1, [0.5, 0.25]), (3, [2.0])])
        payload = state.to_dict()
        del payload["trackers"][0]["strata"]["3"]
        with pytest.raises(
            ValueError, match="^stratum 3 has a weight but no saved moments$"
        ):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)


    @pytest.mark.parametrize("key", ["5:1", "0:7", "1", "0:1:0"])
    def test_restore_rejects_a_sketch_outside_the_sweep(self, key):
        payload = self._saved()
        payload["sketches"][key] = payload["sketches"]["0:1"]
        with pytest.raises(
            ValueError, match=f"^saved sketch '{key}' is not a \\(scheme, stratum\\)"
        ):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)

    def test_restore_rejects_a_sketch_on_another_grid(self):
        payload = self._saved()
        payload["sketches"]["0:3"]["edges"] = _EDGES[::2].tolist()
        with pytest.raises(ValueError, match="^saved sketch '0:3' is on another grid$"):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)

    def test_restore_rejects_die_counts_of_other_strata(self):
        payload = self._saved()
        payload["samples_per_count_index"]["9"] = 3
        with pytest.raises(
            ValueError, match="^saved die count of stratum 9 has no weight$"
        ):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)
        payload = self._saved()
        del payload["samples_per_count_index"]["2"]
        with pytest.raises(
            ValueError, match="^stratum 2 has a weight but no saved die count$"
        ):
            StratifiedYield(self.WEIGHTS, 1, _EDGES).restore(payload)

    def _saved(self):
        state = _state_from(self.WEIGHTS, [(1, [0.5, 0.25]), (3, [2.0])])
        state.end_round({1: 2, 2: 0, 3: 1})
        return json.loads(json.dumps(state.to_dict()))


class TestWeightedSampleBuffer:
    def test_finalize_preserves_order_and_weights(self):
        buffer = WeightedSampleBuffer()
        buffer.update_batch([3.0, 1.0], 0.5)
        buffer.update_batch([2.0], [0.25])
        values, weights = buffer.finalize()
        assert values.tolist() == [3.0, 1.0, 2.0]
        assert weights.tolist() == [0.5, 0.5, 0.25]

    def test_merge_appends_in_fold_order(self):
        a = WeightedSampleBuffer()
        a.update_batch([1.0], 1.0)
        b = WeightedSampleBuffer()
        b.update_batch([2.0], 2.0)
        a.merge(b)
        values, weights = a.finalize()
        assert values.tolist() == [1.0, 2.0]
        assert weights.tolist() == [1.0, 2.0]

    def test_sharded_groups_fold_to_the_from_groups_cdf(self):
        # The fixed-budget reduction contract: per-shard buffers folded in
        # canonical order produce the same ECDF as a one-pass from_groups.
        rng = np.random.default_rng(7)
        groups = [(rng.normal(size=8), w) for w in (0.5, 0.3, 0.2)]
        direct = WeightedEcdf.from_groups(groups)
        shards = []
        for samples, probability in groups:
            shard = WeightedSampleBuffer()
            shard.update_batch(
                samples, np.full(len(samples), probability / len(samples))
            )
            shards.append(shard)
        folded = WeightedSampleBuffer()
        for shard in shards:
            folded.merge(shard)
        merged = WeightedEcdf(*folded.finalize())
        assert np.array_equal(direct.values, merged.values)
        assert np.array_equal(direct.weights, merged.weights)

    def test_empty_buffer_refuses_to_finalize(self):
        with pytest.raises(ValueError, match="no samples"):
            WeightedSampleBuffer().finalize()

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            WeightedSampleBuffer().update_batch([1.0], [-0.5])


# --------------------------------------------------------------------------- #
# Property tests: degenerate inputs the streaming layer must survive
# --------------------------------------------------------------------------- #
class TestSketchGridMismatch:
    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=2, max_value=30),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_with_mismatched_grids_raises(self, bins_a, bins_b, stretch):
        left = FixedGridEcdfSketch.linear(0.0, 1.0, bins_a)
        # Either a different bin count or a stretched span: both change the
        # edge array, and any edge difference must be refused.
        if bins_a == bins_b and stretch == 1.0:
            stretch = 2.0
        right = FixedGridEcdfSketch.linear(0.0, float(stretch) + 1.0, bins_b)
        if np.array_equal(left.edges, right.edges):
            return  # hypothesis found an identical grid; nothing to refuse
        with pytest.raises(
            ValueError, match="cannot merge sketches with different grids"
        ):
            left.merge(right)
        # The refused merge must not have mutated the receiver.
        assert left.count == 0
        assert not left.counts.any()

    def test_merge_same_span_different_bins_raises(self):
        left = FixedGridEcdfSketch.linear(0.0, 1.0, 8)
        right = FixedGridEcdfSketch.linear(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="different grids"):
            left.merge(right)


class TestNeymanZeroVariance:
    @given(
        st.integers(min_value=1, max_value=500),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_strata_zero_variance_spreads_uniformly(
        self, batch, constant, per_stratum
    ):
        # Every stratum saw only a constant: every observed variance is 0,
        # so the w_n * s_n scores all vanish.  The allocation must fall back
        # to a uniform spread (never a division by zero) and conserve the
        # batch exactly.
        state = _state_from(
            {1: 0.5, 2: 0.3, 3: 0.2},
            [(key, [constant] * per_stratum) for key in (1, 2, 3)],
        )
        allocation = state.allocate(batch)
        assert sum(allocation.values()) == batch
        assert all(count >= 0 for count in allocation.values())
        if all(state.std(0, k) == 0.0 for k in (1, 2, 3)):
            # Exactly-zero scores fall back to the uniform spread.  (Welford
            # on a non-representable constant can leave a tiny rounding
            # variance, in which case the allocation legitimately follows
            # those tiny scores instead -- covered by the sum check above.)
            assert max(allocation.values()) - min(allocation.values()) <= 1

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=30, deadline=None)
    def test_zero_variance_stratum_gets_nothing(self, batch):
        state = _state_from(
            {1: 0.5, 2: 0.5},
            [
                (1, [0.0, 1.0, 0.0, 1.0]),  # real spread
                (2, [7.0, 7.0, 7.0, 7.0]),  # degenerate
            ],
        )
        allocation = state.allocate(batch)
        assert allocation[2] == 0
        assert allocation[1] == batch

    def test_unsampled_strata_do_not_crash_allocation(self):
        # std() of an empty stratum must behave like zero variance, not NaN.
        allocation = StratifiedYield({1: 0.7, 2: 0.3}, 1, _EDGES).allocate(9)
        assert sum(allocation.values()) == 9
        assert all(count >= 0 for count in allocation.values())
