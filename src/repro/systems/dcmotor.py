"""DC-motor speed-control case study.

A classic SISO benchmark: armature-controlled DC motor whose angular velocity
is measured by an encoder that the attacker can spoof on the fieldbus.  The
loop must bring the speed close to a set point within the analysis window.
Small state dimension and a single output make this the fastest-solving
benchmark — it is used heavily by the unit tests and the backend ablation.
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


@CASE_STUDIES.register("dcmotor")
def build_dcmotor_case_study(
    dt: float = 0.05,
    horizon: int = 30,
    target_speed: float = 2.0,
    tolerance: float = 0.1,
    with_monitors: bool = True,
    attack_bound: float = 3.0,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Build the DC-motor speed-control problem.

    Parameters
    ----------
    dt:
        Sampling period in seconds.
    horizon:
        Analysis window in samples.
    target_speed:
        Desired angular velocity [rad/s].
    tolerance:
        Acceptance band half-width for the performance criterion.
    with_monitors:
        Include range/gradient plausibility monitors on the speed channel.
    attack_bound:
        Per-sample bound on the injected speed falsification [rad/s].
    """
    # States: [angular velocity omega, armature current i]; input: voltage.
    J, b = 0.01, 0.1          # rotor inertia, viscous friction
    Kt, Ke = 0.01, 0.01       # torque and back-EMF constants
    R, L_ind = 1.0, 0.5       # armature resistance and inductance
    A = np.array([[-b / J, Kt / J], [-Ke / L_ind, -R / L_ind]])
    B = np.array([[0.0], [1.0 / L_ind]])
    C = np.array([[1.0, 0.0]])
    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.diag([1e-6, 1e-6]) / dt,
        R_v=np.array([[1e-4]]) * dt,
        name="dc-motor",
        state_names=("omega", "current"),
        output_names=("omega",),
        input_names=("voltage",),
    )
    plant = discretize(continuous, dt)

    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([10.0, 1.0]),
        R_lqr=np.array([[0.1]]),
        # Estimator designed against a larger assumed process noise so the
        # Kalman gain stays responsive to the (attackable) speed measurement.
        Q_kalman=np.diag([1e-2, 1e-2]),
        reference=np.array([target_speed]),
        name="dc-motor-loop",
    )

    pfc = ReachSetCriterion(
        x_des=np.array([target_speed, 0.0]),
        epsilon=np.array([tolerance, np.inf]),
        components=(0,),
        at=horizon,
        name="reach-speed",
    )

    mdc = CompositeMonitor.empty()
    if with_monitors:
        mdc = CompositeMonitor(
            monitors=[
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=0, low=-0.5, high=2.5 * target_speed, name="speed-range"),
                    dead_zone_samples=3,
                ),
                DeadZoneMonitor(
                    inner=GradientMonitor(channel=0, max_rate=8.0 * target_speed, name="speed-gradient"),
                    dead_zone_samples=3,
                ),
            ],
            name="dc-motor-mdc",
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
        name="dc-motor",
    )

    description = (
        "Armature-controlled DC motor with a spoofable speed encoder; the smallest "
        "benchmark, used for fast unit tests and the backend ablation study."
    )
    return CaseStudy(name="dcmotor", problem=problem, description=description)
