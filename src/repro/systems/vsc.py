"""Vehicle Stability Controller (VSC) case study — the paper's §IV.

The VSC of the paper receives wheel speeds (hard-wired, trusted), lateral
acceleration ``ay``, yaw rate ``gamma`` and steering angle over CAN; the
attacker can forge the yaw-rate and lateral-acceleration messages.  We model
the lateral dynamics with the standard linear single-track (bicycle) model
used by the vehicle-stability references the paper builds on (Aoki et al.,
Zheng et al.), augmented with a first-order lag for the hydraulic/steering
actuator the VSC commands:

states
    ``beta`` — body side-slip angle [rad], ``gamma`` — yaw rate [rad/s],
    ``delta_act`` — realised corrective steering angle [rad]
input
    ``delta_cmd`` — commanded corrective steering angle [rad]
outputs (CAN, attackable)
    ``gamma`` (yaw-rate sensor) and ``ay`` (lateral accelerometer)

The actuator lag is what makes the closed-loop response respect the ECU's
gradient monitors (the paper's command path goes through the hydraulic unit);
its time constant is chosen so that the nominal manoeuvre passes every
monitor with its 300 ms dead zone while still meeting the performance
criterion.

The existing monitoring system is reproduced exactly as described in §IV:

* range monitor on ``gamma``  (|gamma| <= 0.2 rad/s),
* gradient monitor on ``gamma`` (<= 0.175 rad/s^2),
* range monitor on ``ay`` (|ay| <= 15 m/s^2),
* gradient monitor on ``ay`` (<= 2 m/s^3),
* relation monitor |gamma - ay / v_x| <= allowedDiff (= 0.035 rad/s),
* each wrapped in a 300 ms dead zone (7 samples at Ts = 40 ms).

The performance criterion is the paper's: the yaw rate must reach at least
80 % of the desired value within 50 sampling instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.fdi import AttackChannelMask
from repro.core.problem import SynthesisProblem
from repro.core.specs import FractionOfTargetCriterion
from repro.lti.discretize import discretize
from repro.lti.model import StateSpace
from repro.monitors.composite import CompositeMonitor
from repro.monitors.deadzone import DeadZoneMonitor
from repro.monitors.gradient_monitor import GradientMonitor
from repro.monitors.range_monitor import RangeMonitor
from repro.monitors.relation_monitor import RelationMonitor
from repro.registry import CASE_STUDIES
from repro.systems.base import CaseStudy, design_closed_loop
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class VSCParameters:
    """Physical and monitoring parameters of the VSC case study.

    The vehicle parameters are representative mid-size-car values from the
    vehicle-stability literature; the monitoring limits, dead zone, sampling
    period and performance-criterion structure follow §IV of the paper
    verbatim.
    """

    mass: float = 1500.0              # vehicle mass [kg]
    inertia_z: float = 2500.0         # yaw inertia [kg m^2]
    cornering_front: float = 55000.0  # front cornering stiffness [N/rad]
    cornering_rear: float = 60000.0   # rear cornering stiffness [N/rad]
    length_front: float = 1.2         # CoG to front axle [m]
    length_rear: float = 1.3          # CoG to rear axle [m]
    speed: float = 10.0               # longitudinal speed v_x [m/s]
    actuator_time_constant: float = 0.8  # hydraulic/steering actuator lag [s]

    sampling_period: float = 0.040    # Ts = 40 ms
    horizon: int = 50                 # pfc deadline T (samples)
    desired_yaw_rate: float = 0.10    # gamma_des [rad/s]
    pfc_fraction: float = 0.8         # "within 80 % of desired"

    gamma_range: float = 0.2          # |gamma| limit [rad/s]
    gamma_gradient: float = 0.175     # d(gamma)/dt limit [rad/s^2]
    ay_range: float = 15.0            # |ay| limit [m/s^2]
    ay_gradient: float = 2.0          # d(ay)/dt limit [m/s^3]
    allowed_diff: float = 0.035       # relation monitor bound [rad/s]
    dead_zone_seconds: float = 0.300  # dead zone duration

    yaw_noise_std: float = 0.002      # yaw-rate sensor noise [rad/s]
    ay_noise_std: float = 0.05        # accelerometer noise [m/s^2]
    process_noise_std: float = 1e-4   # per-state process noise (simulation)
    kalman_q_std: float = 2e-3        # process-noise level assumed by the Kalman design

    attack_bound_gamma: float = 0.5   # |a_gamma| bound [rad/s]
    attack_bound_ay: float = 10.0     # |a_ay| bound [m/s^2]

    @property
    def dead_zone_samples(self) -> int:
        """Dead zone expressed in samples (paper: floor(300 ms / 40 ms) = 7)."""
        return int(self.dead_zone_seconds / self.sampling_period)


def build_vsc_plant(params: VSCParameters | None = None) -> StateSpace:
    """Single-track model + actuator lag, discretised at the VSC sampling period."""
    if params is None:
        params = VSCParameters()
    m, iz = params.mass, params.inertia_z
    cf, cr = params.cornering_front, params.cornering_rear
    lf, lr = params.length_front, params.length_rear
    v = check_positive("speed", params.speed)
    tau = check_positive("actuator_time_constant", params.actuator_time_constant)

    a11 = -(cf + cr) / (m * v)
    a12 = (cr * lr - cf * lf) / (m * v**2) - 1.0
    a21 = (cr * lr - cf * lf) / iz
    a22 = -(cf * lf**2 + cr * lr**2) / (iz * v)
    b1 = cf / (m * v)
    b2 = cf * lf / iz

    A = np.array(
        [
            [a11, a12, b1],
            [a21, a22, b2],
            [0.0, 0.0, -1.0 / tau],
        ]
    )
    B = np.array([[0.0], [0.0], [1.0 / tau]])

    # Outputs: yaw rate gamma (state 1) and lateral acceleration
    # ay = v * (beta_dot + gamma) = v*a11*beta + v*(a12 + 1)*gamma + v*b1*delta_act.
    C = np.array(
        [
            [0.0, 1.0, 0.0],
            [v * a11, v * (a12 + 1.0), v * b1],
        ]
    )

    Q_w = np.eye(3) * params.process_noise_std**2 / params.sampling_period
    R_v = np.diag([params.yaw_noise_std**2, params.ay_noise_std**2]) * params.sampling_period

    continuous = StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=Q_w,
        R_v=R_v,
        name="vsc-bicycle-model",
        state_names=("beta", "gamma", "delta_act"),
        output_names=("gamma", "ay"),
        input_names=("delta_cmd",),
    )
    return discretize(continuous, params.sampling_period)


def build_vsc_monitors(params: VSCParameters | None = None) -> CompositeMonitor:
    """The ECU's existing monitoring system (``mdc``) exactly as in §IV."""
    if params is None:
        params = VSCParameters()
    dead_zone = params.dead_zone_samples
    gamma_channel, ay_channel = 0, 1
    return CompositeMonitor(
        monitors=[
            DeadZoneMonitor(
                inner=RangeMonitor.symmetric(gamma_channel, params.gamma_range, name="gamma-range"),
                dead_zone_samples=dead_zone,
            ),
            DeadZoneMonitor(
                inner=GradientMonitor(gamma_channel, params.gamma_gradient, name="gamma-gradient"),
                dead_zone_samples=dead_zone,
            ),
            DeadZoneMonitor(
                inner=RangeMonitor.symmetric(ay_channel, params.ay_range, name="ay-range"),
                dead_zone_samples=dead_zone,
            ),
            DeadZoneMonitor(
                inner=GradientMonitor(ay_channel, params.ay_gradient, name="ay-gradient"),
                dead_zone_samples=dead_zone,
            ),
            DeadZoneMonitor(
                inner=RelationMonitor(
                    channel_a=gamma_channel,
                    channel_b=ay_channel,
                    gain=1.0 / params.speed,
                    allowed_diff=params.allowed_diff,
                    name="gamma-ay-relation",
                ),
                dead_zone_samples=dead_zone,
            ),
        ],
        name="vsc-mdc",
    )


@CASE_STUDIES.register("vsc")
def build_vsc_case_study(
    params: VSCParameters | None = None,
    with_monitors: bool = True,
    strictness: float = 1e-4,
) -> CaseStudy:
    """Assemble the full VSC synthesis problem of §IV."""
    if params is None:
        params = VSCParameters()
    plant = build_vsc_plant(params)

    ay_desired = params.speed * params.desired_yaw_rate
    reference = np.array([params.desired_yaw_rate, ay_desired])
    system = design_closed_loop(
        plant,
        Q_lqr=np.diag([1.0, 10.0, 0.1]),
        R_lqr=np.array([[100.0]]),
        # The estimator is designed against a larger assumed process noise than
        # the simulation truth (standard robust-filtering practice); this keeps
        # the Kalman gain responsive so residues actually react to injected
        # false data.
        Q_kalman=np.eye(3) * params.kalman_q_std**2,
        reference=reference,
        name="vsc-loop",
    )

    pfc = FractionOfTargetCriterion(
        state_index=1,  # gamma
        target=params.desired_yaw_rate,
        fraction=params.pfc_fraction,
        at=params.horizon,
        name="yaw-rate-settling",
    )

    mdc = build_vsc_monitors(params) if with_monitors else CompositeMonitor.empty()

    problem = SynthesisProblem(
        system=system,
        pfc=pfc,
        horizon=params.horizon,
        mdc=mdc,
        x0=np.zeros(3),
        attack_mask=AttackChannelMask.all_channels(plant.n_outputs),
        attack_bound=np.array([params.attack_bound_gamma, params.attack_bound_ay]),
        strictness=strictness,
        # Yaw rate (rad/s) and lateral acceleration (m/s^2) live on very
        # different scales; the detector therefore uses noise-normalised
        # residues so thresholds are expressed in sigma units.
        residue_weights=np.array([params.yaw_noise_std, params.ay_noise_std]),
        name="vsc",
    )

    description = (
        "Vehicle Stability Controller over a linear single-track model with actuator "
        "lag; yaw rate and lateral acceleration travel over CAN and can be forged.  "
        "Reproduces the §IV case study: monitoring-system bypass (Fig. 2), variable-"
        "threshold synthesis (Fig. 3) and the FAR comparison."
    )
    extras = {
        "params": params,
        # Settings used by the benchmark harness to reproduce §IV (threshold
        # floor for the synthesis loops, in sigma units, and the benign
        # operating envelope for the FAR study).
        "reproduction": {
            "min_threshold": 0.0,
            "far_noise_scale": 1.0,
            "far_initial_state_spread": np.array([0.001, 0.003, 0.0]),
            "far_count": 1000,
        },
    }
    return CaseStudy(name="vsc", problem=problem, description=description, extras=extras)
