"""Tests for repro.explore.space: SearchSpace, points, samplers."""

import pytest

from repro.explore import (
    AdaptiveBisectionSampler,
    ExplorePoint,
    GridSampler,
    SearchSpace,
)
from repro.registry import SAMPLERS
from repro.utils.validation import ValidationError


class TestSearchSpace:
    def test_grid_size_and_points(self):
        space = SearchSpace(
            case_studies=("dcmotor", "trajectory"),
            synthesizers=("stepwise",),
            min_thresholds=(0.0, 0.01),
            noise_scales=(0.5, 1.0, 2.0),
            far_budgets=(0.1, 1.0),
        )
        assert space.size == 2 * 1 * 1 * 1 * 1 * 3 * 2 * 2
        points = space.points()
        assert len(points) == space.size
        assert len(set(points)) == space.size  # hashable + unique

    def test_axes_are_sorted_and_deduped(self):
        space = SearchSpace(noise_scales=(2.0, 0.5, 2.0), min_thresholds=(0.02, 0.0))
        assert space.noise_scales == (0.5, 2.0)
        assert space.min_thresholds == (0.0, 0.02)

    def test_unknown_names_rejected(self):
        with pytest.raises(ValidationError, match="case_studies"):
            SearchSpace(case_studies=("no-such-plant",))
        with pytest.raises(ValidationError, match="synthesizers"):
            SearchSpace(synthesizers=("no-such-algorithm",))
        with pytest.raises(ValidationError, match="deployed"):
            SearchSpace(detectors=("chi-square",))
        with pytest.raises(ValidationError, match="probe attack"):
            SearchSpace(probe_attack="no-such-template")

    def test_json_round_trip(self):
        space = SearchSpace(
            case_studies=("dcmotor",),
            horizons=(8, 10),
            min_thresholds=(0.0, 0.01, 0.02),
            far_count=50,
            probe_instances=12,
            probe_attack_options={"bias": 0.4},
        )
        assert SearchSpace.from_json(space.to_json()) == space

    def test_unit_lowering(self):
        space = SearchSpace(
            case_studies=("dcmotor",), horizons=(8,), far_count=30, probe_instances=16
        )
        point = space.points()[0]
        unit = space.unit(point)
        assert unit.case_study == "dcmotor"
        assert unit.case_study_options == {"horizon": 8}
        assert unit.algorithm == point.synthesizer
        assert unit.far.count == 30
        assert unit.probe["n_instances"] == 16
        assert unit.probe["detector"] == point.detector

    def test_far_budget_not_in_unit_payload(self):
        """Points differing only in budget must share one content address."""
        space = SearchSpace(case_studies=("dcmotor",), far_budgets=(0.05, 1.0))
        low, high = space.points()
        assert low.far_budget != high.far_budget
        assert space.unit(low).to_dict() == space.unit(high).to_dict()

    def test_probe_disabled(self):
        space = SearchSpace(probe_instances=0, far_count=0)
        unit = space.unit(space.points()[0])
        assert unit.probe is None
        assert unit.far is None


class TestSamplers:
    def test_registered(self):
        assert "grid" in SAMPLERS.available()
        assert "adaptive-bisection" in SAMPLERS.available()

    def test_custom_sampler_registration(self):
        @SAMPLERS.register("test-one-point")
        class OnePoint(GridSampler):
            def initial(self, space):
                return space.points()[:1]

        try:
            sampler = SAMPLERS.create("test-one-point")
            assert len(sampler.initial(SearchSpace(noise_scales=(0.5, 1.0)))) == 1
        finally:
            SAMPLERS.unregister("test-one-point")

    def test_grid_sampler_is_exhaustive_and_terminates(self):
        space = SearchSpace(noise_scales=(0.5, 1.0), min_thresholds=(0.0, 0.01))
        sampler = GridSampler()
        assert sampler.initial(space) == space.points()
        assert sampler.refine(space, [{"noise_scale": 0.5}]) == []

    def test_adaptive_initial_is_numeric_box_corners(self):
        space = SearchSpace(
            noise_scales=(0.5, 1.0, 2.0, 4.0), min_thresholds=(0.0, 0.01, 0.02)
        )
        initial = AdaptiveBisectionSampler().initial(space)
        scales = {p.noise_scale for p in initial}
        floors = {p.min_threshold for p in initial}
        assert scales == {0.5, 4.0} and floors == {0.0, 0.02}
        assert len(initial) == 4

    @staticmethod
    def _row(point: ExplorePoint, far: float) -> dict:
        return {
            **point.coordinates(),
            "status": "sat",
            "false_alarm_rate": far,
            "mean_detection_latency": 0.0,
            "stealth_margin": 0.5,
            "error": None,
            "feasible": True,
        }

    def _point(self, scale: float) -> ExplorePoint:
        return ExplorePoint(
            case_study="dcmotor",
            synthesizer="stepwise",
            backend="lp",
            detector="online-residue",
            horizon=None,
            noise_scale=scale,
            min_threshold=0.0,
            far_budget=1.0,
        )

    def test_adaptive_bisects_only_varying_intervals(self):
        scales = (0.25, 0.5, 1.0, 2.0, 4.0)
        space = SearchSpace(noise_scales=scales)
        sampler = AdaptiveBisectionSampler()
        rows = [self._row(self._point(0.25), 0.0), self._row(self._point(4.0), 0.8)]
        proposals = sampler.refine(space, rows)
        assert [p.noise_scale for p in proposals] == [1.0]

        # Same endpoint metrics: the interval is a plateau, nothing proposed.
        flat = [self._row(self._point(0.25), 0.2), self._row(self._point(4.0), 0.2)]
        assert sampler.refine(space, flat) == []

    def test_adaptive_tolerance_treats_near_equal_as_plateau(self):
        space = SearchSpace(noise_scales=(0.25, 0.5, 1.0))
        rows = [self._row(self._point(0.25), 0.10), self._row(self._point(1.0), 0.15)]
        assert AdaptiveBisectionSampler(tolerance=0.1).refine(space, rows) == []
        assert [
            p.noise_scale for p in AdaptiveBisectionSampler(tolerance=0.0).refine(space, rows)
        ] == [0.5]

    def test_adaptive_converges_to_full_variation_region(self):
        """Distinct metrics everywhere: repeated refinement covers the grid."""
        scales = tuple(float(s) for s in range(1, 10))
        space = SearchSpace(noise_scales=scales)
        sampler = AdaptiveBisectionSampler()
        rows = [self._row(p, p.noise_scale / 10.0) for p in sampler.initial(space)]
        rounds = 0
        while True:
            proposals = sampler.refine(space, rows)
            if not proposals:
                break
            rounds += 1
            assert rounds < 20, "refinement failed to terminate"
            rows.extend(self._row(p, p.noise_scale / 10.0) for p in proposals)
        assert {row["noise_scale"] for row in rows} == set(scales)
