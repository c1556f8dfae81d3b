"""Unit tests for attack models and templates."""

import numpy as np
import pytest

from repro.attacks.fdi import AttackChannelMask, FDIAttack
from repro.attacks.templates import (
    AttackTemplate,
    BiasAttack,
    GeometricAttack,
    NoAttack,
    RampAttack,
    ReplayAttack,
    SurgeAttack,
)
from repro.lti.simulate import SimulationOptions, simulate_closed_loop
from repro.utils.validation import ValidationError


class TestAttackChannelMask:
    def test_all_and_none(self):
        full = AttackChannelMask.all_channels(3)
        assert full.attackable == (0, 1, 2)
        assert full.protected == ()
        empty = AttackChannelMask.none(3)
        assert empty.attackable == ()
        assert empty.protected == (0, 1, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            AttackChannelMask(n_outputs=2, attackable=(2,))

    def test_project_zeroes_protected(self):
        mask = AttackChannelMask(n_outputs=3, attackable=(1,))
        projected = mask.project(np.ones((4, 3)))
        np.testing.assert_allclose(projected[:, [0, 2]], 0.0)
        np.testing.assert_allclose(projected[:, 1], 1.0)

    def test_bool_array(self):
        mask = AttackChannelMask(n_outputs=3, attackable=(0, 2))
        np.testing.assert_array_equal(mask.as_bool_array(), [True, False, True])


class TestFDIAttack:
    def test_basic_properties(self):
        attack = FDIAttack(np.array([[1.0, 0.0], [0.0, -2.0]]))
        assert attack.horizon == 2
        assert attack.n_outputs == 2
        assert attack.peak() == 2.0
        assert not attack.is_zero()
        assert attack.magnitude("inf") == pytest.approx(3.0)

    def test_zeros_constructor(self):
        attack = FDIAttack.zeros(5, 2)
        assert attack.is_zero()
        assert attack.support().size == 0

    def test_mask_violation_rejected(self):
        mask = AttackChannelMask(n_outputs=2, attackable=(0,))
        with pytest.raises(ValidationError):
            FDIAttack(np.ones((3, 2)), mask=mask)

    def test_mask_respected_passes(self):
        mask = AttackChannelMask(n_outputs=2, attackable=(0,))
        values = np.zeros((3, 2))
        values[:, 0] = 1.0
        attack = FDIAttack(values, mask=mask)
        assert attack.support().size == 3

    def test_truncate_and_scale(self):
        attack = FDIAttack(np.arange(6, dtype=float).reshape(3, 2))
        truncated = attack.truncated(2)
        assert truncated.horizon == 2
        scaled = attack.scaled(2.0)
        assert scaled.peak() == pytest.approx(2 * attack.peak())
        with pytest.raises(ValidationError):
            attack.truncated(10)


class TestTemplates:
    def test_no_attack(self):
        assert NoAttack().generate(5, 2).is_zero()

    def test_bias_attack_start(self):
        attack = BiasAttack(bias=2.0, start=3).generate(6, 1)
        np.testing.assert_allclose(attack.values[:3, 0], 0.0)
        np.testing.assert_allclose(attack.values[3:, 0], 2.0)

    def test_ramp_attack_slope(self):
        attack = RampAttack(slope=0.5, start=1).generate(5, 1)
        np.testing.assert_allclose(attack.values[:, 0], [0.0, 0.0, 0.5, 1.0, 1.5])

    def test_surge_attack_profile(self):
        attack = SurgeAttack(surge_value=5.0, settle_value=0.5, surge_length=2).generate(4, 1)
        np.testing.assert_allclose(attack.values[:, 0], [5.0, 5.0, 0.5, 0.5])

    def test_geometric_attack_growth(self):
        attack = GeometricAttack(initial=1.0, ratio=2.0).generate(4, 1)
        np.testing.assert_allclose(attack.values[:, 0], [1.0, 2.0, 4.0, 8.0])

    def test_geometric_requires_positive_ratio(self):
        with pytest.raises(ValidationError):
            GeometricAttack(initial=1.0, ratio=0.0)

    def test_templates_respect_mask(self):
        mask = AttackChannelMask(n_outputs=2, attackable=(1,))
        attack = BiasAttack(bias=1.0, mask=mask).generate(3, 2)
        np.testing.assert_allclose(attack.values[:, 0], 0.0)
        np.testing.assert_allclose(attack.values[:, 1], 1.0)

    def test_template_mask_dimension_mismatch(self):
        mask = AttackChannelMask(n_outputs=3, attackable=(1,))
        with pytest.raises(ValidationError):
            BiasAttack(bias=1.0, mask=mask).generate(3, 2)

    def test_replay_materialize(self):
        recorded = np.array([[1.0], [2.0]])
        live = np.array([[5.0], [5.0], [5.0]])
        attack = ReplayAttack(recorded=recorded, start=1).materialize(live)
        # At samples 1 and 2 the measured value becomes the recording.
        np.testing.assert_allclose(live[1:3] + attack.values[1:3], recorded)
        np.testing.assert_allclose(attack.values[0], 0.0)


#: One instance of every template, as ``examples/attack_catalog.py`` runs them.
CATALOG: dict[str, AttackTemplate] = {
    "none": NoAttack(),
    "bias": BiasAttack(bias=0.5, start=3),
    "ramp": RampAttack(slope=0.05, start=2),
    "surge": SurgeAttack(surge_value=1.0, settle_value=0.1, surge_length=2),
    "geometric": GeometricAttack(initial=0.01, ratio=1.2),
    "replay": ReplayAttack(recorded=np.full((4, 1), 0.3), start=5),
}


class TestTemplatesThroughSimulation:
    """``simulate_closed_loop(..., attack=template.generate(T, m).values)``."""

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_generated_values_are_injected_on_the_same_noise(self, simple_closed_loop, name):
        horizon = 12
        options = SimulationOptions(horizon=horizon, with_noise=True, seed=3, x0=[0.5, 0.0])
        attack = CATALOG[name].generate(horizon, simple_closed_loop.plant.n_outputs)
        baseline = simulate_closed_loop(simple_closed_loop, options)
        attacked = simulate_closed_loop(simple_closed_loop, options, attack=attack.values)
        # One seed draws the same noise, so the runs differ by the attack alone.
        assert np.array_equal(attacked.measurement_noise, baseline.measurement_noise)
        assert np.array_equal(attacked.process_noise, baseline.process_noise)
        assert np.array_equal(attacked.attacks, attack.values)
        np.testing.assert_allclose(
            attacked.measurements - attacked.true_outputs, attack.values, atol=1e-12
        )
        assert np.array_equal(attacked.states, baseline.states) == attack.is_zero()

    def test_longer_template_is_truncated_to_the_horizon(self, simple_closed_loop):
        attack = BiasAttack(bias=0.5).generate(20, 1).truncated(10)
        trace = simulate_closed_loop(
            simple_closed_loop, SimulationOptions(horizon=10), attack=attack.values
        )
        np.testing.assert_allclose(trace.attacks, 0.5)
