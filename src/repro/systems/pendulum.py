"""Inverted-pendulum-on-cart case study.

An open-loop-unstable benchmark: the cart position and pendulum angle are
measured, and the angle encoder is attackable.  Because the plant is
unstable, even small stealthy measurement falsifications can have outsized
effects, which stresses the threshold-synthesis loops differently from the
stable automotive benchmarks.
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
from repro.monitors.range_monitor import RangeMonitor
from repro.registry import CASE_STUDIES
from repro.systems.base import CaseStudy, design_closed_loop


@CASE_STUDIES.register("pendulum")
def build_pendulum_case_study(
    dt: float = 0.02,
    horizon: int = 60,
    angle_tolerance: float = 0.05,
    with_monitors: bool = True,
    attack_bound: float = 0.2,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Build the inverted-pendulum stabilisation problem.

    States: cart position [m], cart velocity [m/s], pendulum angle [rad],
    angular velocity [rad/s].  Input: horizontal force on the cart.
    Outputs: cart position (trusted) and pendulum angle (attackable).
    """
    M, m_p, length, g, friction = 0.5, 0.2, 0.3, 9.81, 0.1
    denom = M + m_p
    A = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, -friction / denom, -m_p * g / denom, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, friction / (denom * length), (denom * g) / (denom * length), 0.0],
        ]
    )
    B = np.array([[0.0], [1.0 / denom], [0.0], [-1.0 / (denom * length)]])
    C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.eye(4) * 1e-6 / dt,
        R_v=np.diag([1e-4, 1e-5]) * dt,
        name="inverted-pendulum",
        state_names=("position", "velocity", "angle", "angular_velocity"),
        output_names=("position", "angle"),
        input_names=("force",),
    )
    plant = discretize(continuous, dt)

    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([10.0, 1.0, 100.0, 1.0]),
        R_lqr=np.array([[0.5]]),
        reference=None,
        name="pendulum-loop",
    )

    # Start with the pendulum displaced by 0.1 rad; the loop must return the
    # angle to within the tolerance band by the end of the window.
    x0 = np.array([0.0, 0.0, 0.1, 0.0])
    pfc = ReachSetCriterion(
        x_des=np.zeros(4),
        epsilon=np.array([np.inf, np.inf, angle_tolerance, np.inf]),
        components=(2,),
        at=horizon,
        name="angle-settles",
    )

    mdc = CompositeMonitor.empty()
    if with_monitors:
        mdc = CompositeMonitor(
            monitors=[
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=0, low=-1.0, high=1.0, name="position-range"),
                    dead_zone_samples=5,
                ),
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=1, low=-0.5, high=0.5, name="angle-range"),
                    dead_zone_samples=5,
                ),
            ],
            name="pendulum-mdc",
        )

    problem = SynthesisProblem(
        system=system,
        pfc=pfc,
        horizon=horizon,
        mdc=mdc,
        x0=x0,
        attack_mask=AttackChannelMask(n_outputs=plant.n_outputs, attackable=(1,)),
        attack_bound=attack_bound,
        strictness=strictness,
        name="pendulum",
    )

    description = (
        "Inverted pendulum on a cart with an attackable angle encoder; an open-loop "
        "unstable benchmark stressing the synthesis loops."
    )
    return CaseStudy(name="pendulum", problem=problem, description=description)
