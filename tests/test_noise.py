"""Unit tests for the noise models and batch generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noise.generators import draw_streams
from repro.noise.models import (
    BoundedUniformNoise,
    GaussianNoise,
    NoiseModel,
    TruncatedGaussianNoise,
    ZeroNoise,
)
from repro.registry import NOISE_MODELS
from repro.utils.rng import STREAM_VERSION
from repro.utils.validation import ValidationError

#: Constructor options of every registered noise model.
REGISTERED = {
    "zero": {"size": 2},
    "gaussian": {"covariance": np.array([[1.0, 0.3, 0.0], [0.3, 2.0, 0.1], [0.0, 0.1, 0.5]])},
    "bounded-uniform": {"bounds": np.array([0.5, 0.0, 2.0])},
    "truncated-gaussian": {"std": np.array([1.0, 0.2]), "bounds": np.array([0.5, 0.3])},
}


class _RowNoise(NoiseModel):
    """A user model implementing only ``sample``: the base class's per-row block."""

    dimension = 2

    def sample(self, horizon, rng=None):
        return np.random.default_rng(rng).exponential(size=(horizon, 2))


MODELS = {name: NOISE_MODELS.create(name, **options) for name, options in REGISTERED.items()}
MODELS["user"] = _RowNoise()

block_shapes = given(
    count=st.integers(1, 12),
    horizon=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)


class TestZeroNoise:
    def test_is_zero(self):
        model = ZeroNoise(3)
        assert model.dimension == 3
        np.testing.assert_allclose(model.sample(5), np.zeros((5, 3)))

    def test_sample_one(self):
        np.testing.assert_allclose(ZeroNoise(2).sample_one(), np.zeros(2))


class TestGaussianNoise:
    def test_shape_and_covariance(self):
        covariance = np.diag([1.0, 4.0])
        model = GaussianNoise(covariance)
        samples = model.sample(20000, rng=0)
        assert samples.shape == (20000, 2)
        np.testing.assert_allclose(np.cov(samples.T), covariance, rtol=0.1, atol=0.05)

    def test_from_std(self):
        model = GaussianNoise.from_std([0.1, 0.2])
        np.testing.assert_allclose(model.covariance, np.diag([0.01, 0.04]))

    @pytest.mark.parametrize(
        "covariance",
        [np.array([[1.0, 0.6], [0.6, 2.0]]), np.diag([0.0, 4e-6])],
        ids=["correlated", "singular"],
    )
    def test_block_covariance(self, covariance):
        block = GaussianNoise(covariance).sample_block(400, 50, rng=0)
        samples = block.reshape(-1, 2)
        np.testing.assert_allclose(
            np.cov(samples.T), covariance, rtol=0.05, atol=0.02 * covariance.max()
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            GaussianNoise(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            GaussianNoise(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reproducible(self):
        model = GaussianNoise(np.eye(2))
        np.testing.assert_allclose(model.sample(5, rng=7), model.sample(5, rng=7))


class TestBoundedUniform:
    def test_respects_bounds(self):
        model = BoundedUniformNoise(bounds=[0.5, 2.0])
        samples = model.sample(1000, rng=1)
        assert np.all(np.abs(samples[:, 0]) <= 0.5)
        assert np.all(np.abs(samples[:, 1]) <= 2.0)

    def test_zero_bound_channel_is_silent(self):
        model = BoundedUniformNoise(bounds=[0.0, 1.0])
        samples = model.sample(100, rng=2)
        np.testing.assert_allclose(samples[:, 0], 0.0)

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValidationError):
            BoundedUniformNoise(bounds=[-1.0])


class TestTruncatedGaussian:
    def test_respects_bounds(self):
        model = TruncatedGaussianNoise(std=[1.0], bounds=[0.5])
        samples = model.sample(500, rng=3)
        assert np.all(np.abs(samples) <= 0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            TruncatedGaussianNoise(std=[1.0, 2.0], bounds=[0.5])


class TestSampleBlock:
    def test_every_registered_model_is_covered(self):
        assert set(REGISTERED) == set(NOISE_MODELS.available())

    @pytest.mark.parametrize("name", sorted(MODELS))
    @settings(max_examples=25, deadline=None)
    @block_shapes
    def test_shape_and_reproducibility(self, name, count, horizon, seed):
        model = MODELS[name]
        block = model.sample_block(count, horizon, np.random.default_rng(seed))
        assert block.shape == (count, horizon, model.dimension)
        again = model.sample_block(count, horizon, np.random.default_rng(seed))
        assert np.array_equal(block, again)

    @pytest.mark.parametrize("name", sorted(MODELS))
    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(1, 12),
        horizon=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_prefix_stability(self, name, count, horizon, seed, data):
        """The first ``k`` rows of a block are the block of ``k``: shards are slices."""
        k = data.draw(st.integers(1, count))
        model = MODELS[name]
        block = model.sample_block(count, horizon, np.random.default_rng(seed))
        prefix = model.sample_block(k, horizon, np.random.default_rng(seed))
        assert np.array_equal(block[:k], prefix)

    @pytest.mark.parametrize("name", ["bounded-uniform", "truncated-gaussian"])
    @settings(max_examples=25, deadline=None)
    @block_shapes
    def test_bounds_are_respected(self, name, count, horizon, seed):
        model = MODELS[name]
        block = model.sample_block(count, horizon, np.random.default_rng(seed))
        assert np.all(np.abs(block) <= model.bounds)

    @settings(max_examples=25, deadline=None)
    @block_shapes
    def test_bounded_uniform_is_numpy_uniform(self, count, horizon, seed):
        model = MODELS["bounded-uniform"]
        block = model.sample_block(count, horizon, np.random.default_rng(seed))
        size = (count, horizon, model.dimension)
        expected = np.random.default_rng(seed).uniform(-1.0, 1.0, size=size) * model.bounds
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_sample_is_a_one_row_block(self, name):
        model = MODELS[name]
        single = model.sample(6, np.random.default_rng(3))
        assert np.array_equal(single, model.sample_block(1, 6, np.random.default_rng(3))[0])


class TestDrawStreams:
    def test_blocks_come_in_contract_order(self):
        """Measurement block, then process block, then initial-state offsets."""
        model = BoundedUniformNoise(bounds=[0.2])
        covariance = np.diag([1e-2, 2e-2])
        spread = np.array([0.5, 0.0])
        streams = draw_streams(4, 5, 3, model, process_covariance=covariance, x0_spread=spread)
        rng = np.random.default_rng([4, STREAM_VERSION])
        assert np.array_equal(streams.measurement, model.sample_block(5, 3, rng))
        assert np.array_equal(
            streams.process, GaussianNoise(covariance).sample_block(5, 3, rng)
        )
        assert np.array_equal(
            streams.x0_offsets, rng.uniform(-1.0, 1.0, size=(5, 2)) * spread
        )

    def test_zero_covariance_draws_nothing(self):
        model = BoundedUniformNoise(bounds=[0.2])
        spread = np.array([0.5, 0.1])
        zero = draw_streams(4, 5, 3, model, process_covariance=np.zeros((2, 2)), x0_spread=spread)
        absent = draw_streams(4, 5, 3, model, x0_spread=spread)
        assert zero.process is None
        assert np.array_equal(zero.x0_offsets, absent.x0_offsets)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_population_is_fixed_by_its_seed(self, name):
        model = MODELS[name]
        streams = draw_streams(11, 4, 5, model)
        assert streams.measurement.shape == (4, 5, model.dimension)
        assert np.array_equal(streams.measurement, draw_streams(11, 4, 5, model).measurement)
        if name != "zero":
            other = draw_streams(12, 4, 5, model).measurement
            assert not np.array_equal(streams.measurement, other)
            assert not np.array_equal(streams.measurement[0], streams.measurement[1])
