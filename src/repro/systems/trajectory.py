"""Trajectory-tracking system (the paper's Fig. 1 motivational example).

A double-integrator vehicle tracks a position set point through a Kalman
filter + LQR loop; the attacker spoofs the position measurement (the GPS
channel of the UAV-capture scenario the paper cites).  The performance
criterion asks the position to be inside a small band around the set point by
the end of the window, which a small late-phase injection can prevent while a
static threshold sized for the early transient lets it through — exactly the
trade-off Fig. 1b illustrates.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.fdi import AttackChannelMask
from repro.core.problem import SynthesisProblem
from repro.core.specs import ReachSetCriterion
from repro.lti.discretize import discretize
from repro.lti.model import StateSpace
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.registry import CASE_STUDIES
from repro.systems.base import CaseStudy, design_closed_loop


@CASE_STUDIES.register("trajectory")
def build_trajectory_case_study(
    dt: float = 0.1,
    horizon: int = 10,
    target_position: float = 0.5,
    tolerance: float = 0.05,
    measurement_noise_std: float = 0.01,
    process_noise_std: float = 0.002,
    attack_bound: float = 0.5,
    with_monitors: bool = True,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Build the trajectory-tracking problem of Fig. 1.

    Parameters
    ----------
    dt:
        Sampling period (the figure uses 0.1 s ticks).
    horizon:
        Analysis window ``T`` in samples (the figure spans 1 s = 10 samples).
    target_position:
        Position set point in metres.
    tolerance:
        Half-width of the acceptance band for the performance criterion.
    measurement_noise_std / process_noise_std:
        Gaussian noise levels of the position sensor and the dynamics.
    attack_bound:
        Per-sample bound on the injected position falsification (metres).
    with_monitors:
        Include a simple range + gradient plausibility monitor on the
        position channel (with a short dead zone), mirroring the structure of
        the VSC monitors at a smaller scale.
    """
    # Double integrator: states [position, velocity], input acceleration,
    # measured output: position.
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[1.0, 0.0]])
    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.diag([0.0, process_noise_std**2]) / dt,
        R_v=np.array([[measurement_noise_std**2]]) * dt,
        name="trajectory-tracking",
        state_names=("position", "velocity"),
        output_names=("position",),
        input_names=("acceleration",),
    )
    plant = discretize(continuous, dt)

    reference = np.array([target_position])
    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([400.0, 20.0]),
        R_lqr=np.array([[0.1]]),
        reference=reference,
        name="trajectory-tracking-loop",
    )

    pfc = ReachSetCriterion(
        x_des=np.array([target_position, 0.0]),
        epsilon=np.array([tolerance, np.inf]),
        components=(0,),
        at=horizon,
        name="reach-position",
    )

    mdc = CompositeMonitor.empty()
    if with_monitors:
        mdc = CompositeMonitor(
            monitors=[
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=0, low=-0.5, high=1.5, name="position-range"),
                    dead_zone_samples=3,
                ),
                DeadZoneMonitor(
                    inner=GradientMonitor(channel=0, max_rate=5.0, name="position-gradient"),
                    dead_zone_samples=3,
                ),
            ],
            name="trajectory-mdc",
        )

    problem = SynthesisProblem(
        system=system,
        pfc=pfc,
        horizon=horizon,
        mdc=mdc,
        x0=np.zeros(2),
        attack_mask=AttackChannelMask.all_channels(plant.n_outputs),
        attack_bound=attack_bound,
        strictness=strictness,
        name="trajectory-tracking",
    )

    description = (
        "Double-integrator trajectory tracking with a spoofable position sensor; "
        "reproduces the motivational example of Fig. 1 (deviation and residue under "
        "noise vs. attack, static vs. variable thresholds)."
    )
    extras = {
        "target_position": target_position,
        "tolerance": tolerance,
        "measurement_noise_std": measurement_noise_std,
        # Settings used by the benchmark harness to reproduce the paper's
        # experiments on this system (threshold floor for the synthesis loops
        # and the benign operating envelope for the FAR study).
        "reproduction": {
            "min_threshold": 0.0,
            "far_noise_scale": 1.0,
            "far_initial_state_spread": np.array([0.04, 0.02]),
            "far_count": 1000,
        },
    }
    return CaseStudy(name="trajectory", problem=problem, description=description, extras=extras)
