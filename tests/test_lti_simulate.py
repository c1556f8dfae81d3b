"""Unit tests for the closed-loop simulation engine."""

import numpy as np
import pytest

from repro.lti.simulate import (
    ClosedLoopSystem,
    SimulationOptions,
    SimulationTrace,
    simulate_closed_loop,
)
from repro.utils.validation import ValidationError


class TestClosedLoopSystem:
    def test_gain_shapes_validated(self, double_integrator):
        with pytest.raises(ValidationError):
            ClosedLoopSystem(plant=double_integrator, K=np.zeros((2, 2)), L=np.zeros((2, 1)))
        with pytest.raises(ValidationError):
            ClosedLoopSystem(plant=double_integrator, K=np.zeros((1, 2)), L=np.zeros((1, 1)))

    def test_requires_discrete_plant(self, double_integrator_continuous):
        with pytest.raises(ValidationError):
            ClosedLoopSystem(
                plant=double_integrator_continuous, K=np.zeros((1, 2)), L=np.zeros((2, 1))
            )

    def test_control_law(self, simple_closed_loop):
        xhat = np.array([1.0, 2.0])
        expected = -simple_closed_loop.K @ xhat
        np.testing.assert_allclose(simple_closed_loop.control(xhat), expected)

    def test_closed_loop_matrix_stable(self, simple_closed_loop):
        eigenvalues = np.linalg.eigvals(simple_closed_loop.closed_loop_matrix())
        assert np.all(np.abs(eigenvalues) < 1.0)

    def test_estimator_matrix_stable(self, simple_closed_loop):
        eigenvalues = np.linalg.eigvals(simple_closed_loop.estimator_matrix())
        assert np.all(np.abs(eigenvalues) < 1.0)


class TestSimulation:
    def test_trace_shapes(self, simple_closed_loop):
        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=20))
        assert trace.states.shape == (21, 2)
        assert trace.estimates.shape == (21, 2)
        assert trace.inputs.shape == (21, 1)
        assert trace.residues.shape == (20, 1)
        assert trace.measurements.shape == (20, 1)
        assert trace.horizon == 20

    def test_regulation_decays_to_origin(self, simple_closed_loop):
        options = SimulationOptions(horizon=100, x0=[1.0, 0.0])
        trace = simulate_closed_loop(simple_closed_loop, options)
        assert np.linalg.norm(trace.final_state()) < 1e-2

    def test_noiseless_run_is_deterministic(self, simple_closed_loop):
        options = SimulationOptions(horizon=30, x0=[1.0, -1.0])
        a = simulate_closed_loop(simple_closed_loop, options)
        b = simulate_closed_loop(simple_closed_loop, options)
        np.testing.assert_allclose(a.states, b.states)

    def test_seeded_noise_is_reproducible(self, simple_closed_loop):
        options = SimulationOptions(horizon=30, with_noise=True, seed=5)
        a = simulate_closed_loop(simple_closed_loop, options)
        b = simulate_closed_loop(simple_closed_loop, options)
        np.testing.assert_allclose(a.states, b.states)
        np.testing.assert_allclose(a.measurement_noise, b.measurement_noise)

    def test_different_seeds_differ(self, simple_closed_loop):
        a = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=30, with_noise=True, seed=1))
        b = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=30, with_noise=True, seed=2))
        assert not np.allclose(a.measurement_noise, b.measurement_noise)

    def test_explicit_noise_overrides_random(self, simple_closed_loop):
        noise = np.full((10, 1), 0.5)
        trace = simulate_closed_loop(
            simple_closed_loop,
            SimulationOptions(horizon=10, with_noise=False),
            measurement_noise=noise,
        )
        np.testing.assert_allclose(trace.measurement_noise, noise)
        # The first measurement equals C x0 + noise since u0 = 0 and x0 = 0.
        assert trace.measurements[0, 0] == pytest.approx(0.5)

    def test_attack_is_recorded_and_applied(self, simple_closed_loop):
        attack = np.zeros((10, 1))
        attack[3, 0] = 1.0
        trace = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=10), attack=attack
        )
        np.testing.assert_allclose(trace.attacks, attack)
        assert trace.is_attacked()
        # The attacked measurement differs from the true output exactly by the attack.
        np.testing.assert_allclose(trace.measurements - trace.true_outputs, attack)

    def test_attack_changes_trajectory(self, simple_closed_loop):
        clean = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=20, x0=[1.0, 0.0]))
        attack = np.full((20, 1), 0.2)
        attacked = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=20, x0=[1.0, 0.0]), attack=attack
        )
        assert not np.allclose(clean.states, attacked.states)

    def test_residue_definition(self, simple_closed_loop):
        """The residue equals measurement minus predicted output from the estimate."""
        trace = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=15, with_noise=True, seed=0, x0=[0.3, 0.0])
        )
        plant = simple_closed_loop.plant
        for k in range(trace.horizon):
            predicted = plant.C @ trace.estimates[k] + plant.D @ trace.inputs[k]
            np.testing.assert_allclose(trace.residues[k], trace.measurements[k] - predicted, atol=1e-12)

    def test_wrong_shape_rejected(self, simple_closed_loop):
        with pytest.raises(ValidationError):
            simulate_closed_loop(
                simple_closed_loop, SimulationOptions(horizon=10), attack=np.zeros((5, 1))
            )
        with pytest.raises(ValidationError):
            simulate_closed_loop(
                simple_closed_loop,
                SimulationOptions(horizon=10),
                process_noise=np.zeros((10, 1)),
            )

    def test_bad_horizon(self):
        with pytest.raises(ValidationError):
            SimulationOptions(horizon=0)


class TestTraceHelpers:
    def test_residue_norms(self, simple_closed_loop):
        trace = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=10, x0=[1.0, 0.0])
        )
        norms_two = trace.residue_norms(2)
        norms_inf = trace.residue_norms("inf")
        assert norms_two.shape == (10,)
        np.testing.assert_allclose(norms_two, norms_inf)  # single output channel

    @pytest.mark.parametrize("order", [1, 2, "inf"])
    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_residue_norms_match_the_old_expression(self, m, order):
        rng = np.random.default_rng(m)
        residues = rng.normal(size=(9, m))
        trace = SimulationTrace(
            states=np.zeros((10, 1)),
            estimates=np.zeros((10, 1)),
            inputs=np.zeros((10, 1)),
            measurements=residues,
            true_outputs=residues,
            residues=residues,
            attacks=np.zeros_like(residues),
            process_noise=np.zeros((9, 1)),
            measurement_noise=np.zeros_like(residues),
        )
        if order == "inf":
            expected = np.max(np.abs(residues), axis=1)
        else:
            expected = np.linalg.norm(residues, ord=order, axis=1)
        np.testing.assert_array_equal(trace.residue_norms(order), expected)

    @pytest.mark.parametrize("order", [3, 0, np.inf, "fro"])
    def test_residue_norms_reject_other_orders(self, simple_closed_loop, order):
        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=3))
        with pytest.raises(ValidationError, match="residue norm order"):
            trace.residue_norms(order)

    def test_state_deviation(self, simple_closed_loop):
        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=10, x0=[1.0, 0.0]))
        deviation = trace.state_deviation(np.zeros(2))
        assert deviation.shape == (10,)
        assert deviation[0] == pytest.approx(1.0)

    def test_times(self, simple_closed_loop):
        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=5))
        np.testing.assert_allclose(trace.times(), 0.1 * np.arange(1, 6))

    def test_output_trajectory(self, simple_closed_loop):
        trace = simulate_closed_loop(simple_closed_loop, SimulationOptions(horizon=5, x0=[1.0, 0.0]))
        assert trace.output_trajectory(0).shape == (5,)
