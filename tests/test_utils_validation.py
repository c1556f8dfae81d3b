"""Unit tests for the validation helpers and result containers."""

import numpy as np
import pytest

from repro.utils.results import SolveStatus, SynthesisRecord
from repro.utils.rng import STREAM_VERSION, block_rng, ensure_rng, spawn_rngs, spawned_rng
from repro.utils.validation import (
    ValidationError,
    check_finite,
    check_positive,
    check_probability,
    check_square,
    check_symmetric,
)


class TestChecks:
    def test_check_finite_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_finite("x", np.array([1.0, np.nan]))

    def test_check_finite_passes(self):
        out = check_finite("x", [1.0, 2.0])
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_check_square_rejects_rectangular(self):
        with pytest.raises(ValidationError):
            check_square("m", np.zeros((2, 3)))

    def test_check_symmetric_symmetrises(self):
        m = np.array([[1.0, 2.0 + 1e-10], [2.0, 3.0]])
        out = check_symmetric("m", m)
        np.testing.assert_allclose(out, out.T)

    def test_check_symmetric_rejects(self):
        with pytest.raises(ValidationError):
            check_symmetric("m", np.array([[1.0, 2.0], [5.0, 3.0]]))

    def test_check_probability_bounds(self):
        assert check_probability("p", 0.5) == 0.5
        with pytest.raises(ValidationError):
            check_probability("p", 1.5)

    def test_check_positive(self):
        assert check_positive("x", 2.0) == 2.0
        with pytest.raises(ValidationError):
            check_positive("x", 0.0)
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValidationError):
            check_positive("x", -1.0, strict=False)


class TestRng:
    def test_ensure_rng_from_seed_is_deterministic(self):
        a = ensure_rng(42).normal(size=5)
        b = ensure_rng(42).normal(size=5)
        np.testing.assert_allclose(a, b)

    def test_ensure_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert ensure_rng(rng) is rng

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [g.normal() for g in spawn_rngs(7, 3)]
        second = [g.normal() for g in spawn_rngs(7, 3)]
        np.testing.assert_allclose(first, second)
        assert len(set(np.round(first, 12))) == 3

    @pytest.mark.parametrize("index", [0, 4, -1])
    def test_spawned_rng_is_one_of_spawn_rngs(self, index):
        expected = spawn_rngs(7, 5)[index].integers(0, 2**32, size=4)
        assert np.array_equal(spawned_rng(7, 5, index).integers(0, 2**32, size=4), expected)

    def test_block_rng_is_keyed_by_seed_and_stream_version(self):
        a = block_rng(7).random(4)
        assert np.array_equal(a, block_rng(7).random(4))
        assert np.array_equal(a, np.random.default_rng([7, STREAM_VERSION]).random(4))
        assert not np.array_equal(a, ensure_rng(7).random(4))
        rng = np.random.default_rng(0)
        assert block_rng(rng) is rng


class TestResults:
    def test_solve_status_truthiness(self):
        assert bool(SolveStatus.SAT)
        assert not bool(SolveStatus.UNSAT)
        assert not bool(SolveStatus.UNKNOWN)

    def test_synthesis_record_defaults(self):
        record = SynthesisRecord(round_index=1, action="test")
        assert record.extra == {}
        assert record.solver_time == 0.0
