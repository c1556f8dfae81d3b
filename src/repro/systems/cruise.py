"""Adaptive-cruise-control (ACC) case study.

The following vehicle regulates the inter-vehicle gap and relative speed; the
radar/V2V messages carrying those two measurements are attackable.  A
stealthy attacker tries to keep the loop from closing the gap to the desired
spacing — the automotive scenario the CPS-security literature most often
evaluates, included here as a second multi-output benchmark next to the VSC.
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
from repro.monitors.relation_monitor import RelationMonitor
from repro.registry import CASE_STUDIES
from repro.systems.base import CaseStudy, design_closed_loop


@CASE_STUDIES.register("cruise")
def build_cruise_case_study(
    dt: float = 0.1,
    horizon: int = 40,
    gap_error_target: float = 0.0,
    tolerance: float = 0.5,
    time_constant: float = 0.5,
    with_monitors: bool = True,
    attack_bound: float = 5.0,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Build the ACC gap-regulation problem.

    States: gap error ``e`` [m], relative speed ``dv`` [m/s], ego acceleration
    ``a`` [m/s^2] (first-order actuator lag).  Input: acceleration command.
    Outputs (attackable): gap error and relative speed.
    """
    tau = float(time_constant)
    A = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, -1.0 / tau],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / tau]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.diag([1e-4, 1e-4, 1e-4]) / dt,
        R_v=np.diag([0.05**2, 0.05**2]) * dt,
        name="acc",
        state_names=("gap_error", "relative_speed", "acceleration"),
        output_names=("gap_error", "relative_speed"),
        input_names=("accel_command",),
    )
    plant = discretize(continuous, dt)

    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([5.0, 2.0, 0.1]),
        R_lqr=np.array([[1.0]]),
        reference=None,
        name="acc-loop",
    )

    # Start with a 4 m gap error and 1 m/s closing speed; the loop must bring
    # the gap error close to zero by the end of the window.
    x0 = np.array([4.0, 1.0, 0.0])
    pfc = ReachSetCriterion(
        x_des=np.array([gap_error_target, 0.0, 0.0]),
        epsilon=np.array([tolerance, np.inf, np.inf]),
        components=(0,),
        at=horizon,
        name="close-gap",
    )

    mdc = CompositeMonitor.empty()
    if with_monitors:
        mdc = CompositeMonitor(
            monitors=[
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=0, low=-2.0, high=8.0, name="gap-range"),
                    dead_zone_samples=4,
                ),
                DeadZoneMonitor(
                    inner=GradientMonitor(channel=0, max_rate=6.0, name="gap-gradient"),
                    dead_zone_samples=4,
                ),
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=1, low=-4.0, high=4.0, name="speed-range"),
                    dead_zone_samples=4,
                ),
                # Kinematic consistency: the change of the gap error should
                # match the measured relative speed (expressed per sample).
                DeadZoneMonitor(
                    inner=RelationMonitor(
                        channel_a=0,
                        channel_b=1,
                        gain=0.0,
                        allowed_diff=8.0,
                        name="gap-speed-consistency",
                    ),
                    dead_zone_samples=4,
                ),
            ],
            name="acc-mdc",
        )

    problem = SynthesisProblem(
        system=system,
        pfc=pfc,
        horizon=horizon,
        mdc=mdc,
        x0=x0,
        attack_mask=AttackChannelMask(n_outputs=plant.n_outputs, attackable=(0, 1)),
        attack_bound=attack_bound,
        strictness=strictness,
        name="acc",
    )

    description = (
        "Adaptive cruise control regulating gap error and relative speed from "
        "attackable radar/V2V measurements; a second multi-output benchmark."
    )
    return CaseStudy(name="cruise", problem=problem, description=description)
