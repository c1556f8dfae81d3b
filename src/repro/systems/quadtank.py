"""Quadruple-tank process-control case study.

The four-tank laboratory process (Johansson, 2000) linearised around an
operating point is the standard multi-input multi-output benchmark of the
false-data-injection literature (it appears in the works the paper cites on
residue-based detection for process control).  Two pumps feed four coupled
tanks; the two lower-tank levels are measured by sensors reachable over the
plant network and can be falsified.
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


@CASE_STUDIES.register("quadtank")
def build_quadtank_case_study(
    dt: float = 1.0,
    horizon: int = 40,
    level_tolerance: float = 1.0,
    with_monitors: bool = True,
    attack_bound: float = 5.0,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Build the quadruple-tank level-regulation problem.

    The linearised model uses the minimum-phase parameter set of Johansson's
    original paper.  States are the level deviations of tanks 1-4 [cm] from
    the operating point, inputs are the two pump-voltage deviations, and the
    attackable outputs are the level sensors of tanks 1 and 2.
    """
    # Minimum-phase configuration constants (Johansson 2000).
    A1, A2, A3, A4 = 28.0, 32.0, 28.0, 32.0      # tank cross-sections [cm^2]
    a1, a2, a3, a4 = 0.071, 0.057, 0.071, 0.057  # outlet areas [cm^2]
    g = 981.0
    k1, k2 = 3.33, 3.35
    gamma1, gamma2 = 0.70, 0.60
    h0 = np.array([12.4, 12.7, 1.8, 1.4])        # operating levels [cm]

    T_const = [
        (Ai / ai) * np.sqrt(2.0 * h / g)
        for Ai, ai, h in zip((A1, A2, A3, A4), (a1, a2, a3, a4), h0)
    ]
    A = np.array(
        [
            [-1.0 / T_const[0], 0.0, A3 / (A1 * T_const[2]), 0.0],
            [0.0, -1.0 / T_const[1], 0.0, A4 / (A2 * T_const[3])],
            [0.0, 0.0, -1.0 / T_const[2], 0.0],
            [0.0, 0.0, 0.0, -1.0 / T_const[3]],
        ]
    )
    B = np.array(
        [
            [gamma1 * k1 / A1, 0.0],
            [0.0, gamma2 * k2 / A2],
            [0.0, (1.0 - gamma2) * k2 / A3],
            [(1.0 - gamma1) * k1 / A4, 0.0],
        ]
    )
    C = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.eye(4) * 1e-4 / dt,
        R_v=np.eye(2) * 0.01**2 * dt,
        name="quadruple-tank",
        state_names=("h1", "h2", "h3", "h4"),
        output_names=("h1", "h2"),
        input_names=("pump1", "pump2"),
    )
    plant = discretize(continuous, dt)

    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([10.0, 10.0, 1.0, 1.0]),
        R_lqr=np.eye(2) * 0.5,
        reference=None,
        name="quadtank-loop",
    )

    # Start displaced from the operating point; the loop must return the two
    # measured levels to within the tolerance band.
    x0 = np.array([6.0, -5.0, 2.0, -2.0])
    pfc = ReachSetCriterion(
        x_des=np.zeros(4),
        epsilon=np.array([level_tolerance, level_tolerance, np.inf, np.inf]),
        components=(0, 1),
        at=horizon,
        name="levels-settle",
    )

    mdc = CompositeMonitor.empty()
    if with_monitors:
        mdc = CompositeMonitor(
            monitors=[
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=0, low=-12.0, high=12.0, name="h1-range"),
                    dead_zone_samples=3,
                ),
                DeadZoneMonitor(
                    inner=RangeMonitor(channel=1, low=-12.0, high=12.0, name="h2-range"),
                    dead_zone_samples=3,
                ),
                DeadZoneMonitor(
                    inner=GradientMonitor(channel=0, max_rate=3.0, name="h1-gradient"),
                    dead_zone_samples=3,
                ),
                DeadZoneMonitor(
                    inner=GradientMonitor(channel=1, max_rate=3.0, name="h2-gradient"),
                    dead_zone_samples=3,
                ),
            ],
            name="quadtank-mdc",
        )

    problem = SynthesisProblem(
        system=system,
        pfc=pfc,
        horizon=horizon,
        mdc=mdc,
        x0=x0,
        attack_mask=AttackChannelMask.all_channels(plant.n_outputs),
        attack_bound=attack_bound,
        strictness=strictness,
        name="quadtank",
    )

    description = (
        "Quadruple-tank process with two attackable level sensors; the standard MIMO "
        "benchmark of the false-data-injection literature."
    )
    return CaseStudy(name="quadtank", problem=problem, description=description)
