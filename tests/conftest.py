"""Shared fixtures for the test suite.

The fixtures centralise the small plants and closed loops used across many
test modules so individual tests stay focused on behaviour, not setup.  The
``fleet_oracle`` and ``batch_oracle`` fixtures are the independent
references of the runtime equivalence layer: the per-step fleet loops the
runtime ran before it had one stepping loop and one detector pass, stepping
the reference stepper (``_BatchStepper``) in instance-major layout.  The fleet
oracle's bookkeeping is the step-ordered loop of ``alarm_oracle.py``, not the
library's ``AlarmTally``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest
from alarm_oracle import AlarmProgression, step_ordered_oracle

from repro.control.lqr import lqr_gain
from repro.estimation.kalman import steady_state_kalman
from repro.lti.discretize import discretize
from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.noise.generators import draw_streams
from repro.noise.models import ZeroNoise
from repro.runtime.fleet import FleetTrace
from repro.runtime.kernel.runner import _BatchStepper
from repro.runtime.report import build_detector_stats
from repro.utils.rng import spawn_rngs
from repro.systems.dcmotor import build_dcmotor_case_study
from repro.systems.trajectory import build_trajectory_case_study


@pytest.fixture(scope="session")
def double_integrator_continuous() -> StateSpace:
    """Continuous-time double integrator with position measurement."""
    return StateSpace(
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[1.0, 0.0]]),
        Q_w=np.diag([0.0, 1e-4]),
        R_v=np.array([[1e-4]]),
        name="double-integrator",
    )


@pytest.fixture(scope="session")
def double_integrator(double_integrator_continuous) -> StateSpace:
    """Discretised double integrator (dt = 0.1 s)."""
    return discretize(double_integrator_continuous, 0.1)


@pytest.fixture(scope="session")
def simple_closed_loop(double_integrator) -> ClosedLoopSystem:
    """LQR + Kalman closed loop around the double integrator."""
    K = lqr_gain(double_integrator, Q=np.diag([10.0, 1.0]), R=np.array([[1.0]]))
    L, _ = steady_state_kalman(double_integrator)
    return ClosedLoopSystem(plant=double_integrator, K=K, L=L)


@pytest.fixture(scope="session")
def dcmotor_problem():
    """The DC-motor synthesis problem (smallest, fastest benchmark)."""
    return build_dcmotor_case_study().problem


@pytest.fixture(scope="session")
def small_dcmotor_problem():
    """A short-horizon DC-motor problem for the slower (optimizer) backend tests."""
    return build_dcmotor_case_study(horizon=8).problem


@pytest.fixture(scope="session")
def small_trajectory_problem():
    """A short-horizon trajectory problem for the slower (optimizer) backend tests."""
    return build_trajectory_case_study(horizon=6).problem


@pytest.fixture(scope="session")
def trajectory_problem():
    """The trajectory-tracking synthesis problem of Fig. 1."""
    return build_trajectory_case_study().problem


@pytest.fixture(scope="session")
def stable_random_plant() -> StateSpace:
    """A randomly generated but fixed stable discrete plant (3 states, 2 outputs)."""
    rng = np.random.default_rng(1234)
    A = rng.normal(size=(3, 3))
    A = 0.6 * A / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(3, 1))
    C = rng.normal(size=(2, 3))
    return StateSpace(
        A=A,
        B=B,
        C=C,
        Q_w=np.eye(3) * 1e-4,
        R_v=np.eye(2) * 1e-3,
        dt=0.1,
        name="random-stable",
    )


# ----------------------------------------------------------------------
# Runtime oracles: per-step loops, independent of the shared stepping loop
# ----------------------------------------------------------------------
def _step(stepper, V, W, A):
    """One reference step on instance-major ``(N, ·)`` blocks (``None`` = absent)."""
    outputs = stepper.step(V.T, None if W is None else W.T, None if A is None else A.T)
    return tuple(block.T for block in outputs)


def legacy_batch_oracle(system, X0, Xhat0, V, W=None, A=None) -> dict:
    """The per-step ``batch_simulate`` recording loop over ``_BatchStepper``.

    ``X0``/``Xhat0`` are ``(N, n)``; ``V``/``W``/``A`` are instance-major
    ``(N, T, ·)`` blocks (``None`` means absent).  Returns the recorded
    trace arrays by :class:`~repro.runtime.fleet.FleetTrace` field name.
    """
    plant = system.plant
    N, T = V.shape[0], V.shape[1]
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    stepper = _BatchStepper(system, X0.T, Xhat0.T)
    out = {
        "states": np.zeros((N, T + 1, n)),
        "estimates": np.zeros((N, T + 1, n)),
        "inputs": np.zeros((N, T + 1, p)),
        "measurements": np.zeros((N, T, m)),
        "true_outputs": np.zeros((N, T, m)),
        "residues": np.zeros((N, T, m)),
    }
    out["states"][:, 0] = stepper.X.T
    out["estimates"][:, 0] = stepper.Xhat.T
    out["inputs"][:, 0] = stepper.U.T
    for k in range(T):
        y_true, y_attacked, residues = _step(
            stepper,
            V[:, k],
            None if W is None else W[:, k],
            None if A is None else A[:, k],
        )
        out["true_outputs"][:, k] = y_true
        out["measurements"][:, k] = y_attacked
        out["residues"][:, k] = residues
        out["states"][:, k + 1] = stepper.X.T
        out["estimates"][:, k + 1] = stepper.Xhat.T
        out["inputs"][:, k + 1] = stepper.U.T
    return out


class FleetOracle(NamedTuple):
    """What :func:`legacy_fleet_oracle` returns for one fleet run."""

    #: Label → ``DetectorFleetStats.to_dict()``.
    stats: dict
    n_attacked: int
    trace: FleetTrace
    #: The alarm events, in emission order.
    events: list
    #: Per step, label → running ``fleet_alarms_total`` value (as scraped).
    progression: list


class _EventList(list):
    """Sink stand-in: extends itself with every emitted batch."""

    def emit(self, events):
        self.extend(events)


def legacy_fleet_oracle(simulator) -> FleetOracle:
    """Run a (not yet run) ``FleetSimulator`` through the per-step fleet loop.

    Same block draws as :meth:`FleetSimulator.run` (one
    :func:`~repro.noise.generators.draw_streams` call; the attack scheduler
    is the last of ``N + 1`` spawned generators), then one ``_BatchStepper``
    step and one ``detector.step`` per deployed core per sampling instance;
    the resulting ``(T, N)`` alarm stacks go through the step-ordered
    bookkeeping loop of ``alarm_oracle.py``.  Returns a :class:`FleetOracle`:
    per-label stats dicts, the attacked-instance count, the recorded
    :class:`FleetTrace`, the event stream and the alarm-counter progression.
    """
    sim = simulator
    T, N = sim.horizon, sim.n_instances
    plant = sim.system.plant
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    streams = draw_streams(
        sim.seed,
        N,
        T,
        ZeroNoise(m) if sim.noise_model is None else sim.noise_model,
        process_covariance=plant.Q_w if sim.include_process_noise else None,
        x0_spread=sim.x0_spread,
    )
    V, W, X0 = streams.measurement, streams.process, sim.x0.copy()
    if streams.x0_offsets is not None:
        X0 += streams.x0_offsets
    schedule = sim._resolve_schedule(spawn_rngs(sim.seed, N + 1)[-1])
    attacked_mask = np.zeros(N, dtype=bool)
    attack_start = np.full(N, T, dtype=int)
    for (indices, values), entry in zip(schedule, sim.attacks):
        if indices.size and np.any(values):
            attacked_mask[indices] = True
            attack_start[indices] = np.minimum(attack_start[indices], entry.start)
    for detector in sim.detectors.values():
        detector.reset()

    stepper = _BatchStepper(sim.system, X0.T, sim.xhat0.T)
    recorded = {
        "states": np.zeros((N, T + 1, n)),
        "estimates": np.zeros((N, T + 1, n)),
        "inputs": np.zeros((N, T + 1, p)),
        "measurements": np.zeros((N, T, m)),
        "true_outputs": np.zeros((N, T, m)),
        "residues": np.zeros((N, T, m)),
        "attacks": np.zeros((N, T, m)),
    }
    recorded["states"][:, 0] = X0
    recorded["estimates"][:, 0] = sim.xhat0
    alarms = {label: np.empty((T, N), dtype=bool) for label in sim.detectors}
    for k in range(T):
        attack_k = None
        if schedule:
            attack_k = np.zeros((N, m))
            for indices, values in schedule:
                attack_k[indices] += values[k]
        y_true, y_attacked, residues = _step(
            stepper, V[:, k], None if W is None else W[:, k], attack_k
        )
        recorded["true_outputs"][:, k] = y_true
        recorded["measurements"][:, k] = y_attacked
        recorded["residues"][:, k] = residues
        if attack_k is not None:
            recorded["attacks"][:, k] = attack_k
        recorded["states"][:, k + 1] = stepper.X.T
        recorded["estimates"][:, k + 1] = stepper.Xhat.T
        recorded["inputs"][:, k + 1] = stepper.U.T
        for label, detector in sim.detectors.items():
            values = residues if detector.consumes == "residues" else y_attacked
            alarms[label][k] = detector.step(values)

    events, progression = _EventList(), AlarmProgression()
    counts, benign, first_alarm, first_detection = step_ordered_oracle(
        alarms, attacked_mask, attack_start, [events], progression, progression
    )
    trace = FleetTrace(
        **recorded,
        process_noise=W if W is not None else np.zeros((N, T, n)),
        measurement_noise=V,
        dt=sim.system.dt,
        metadata={"system": sim.system.name},
    )
    stats = {
        label: build_detector_stats(
            label=label,
            first_alarm=first_alarm[label],
            first_detection=first_detection[label],
            alarm_count=counts[label],
            benign_alarm_steps=benign[label],
            attacked_mask=attacked_mask,
            attack_start=attack_start,
            horizon=T,
        ).to_dict()
        for label in sim.detectors
    }
    return FleetOracle(
        stats, int(np.sum(attacked_mask)), trace, list(events), progression.seen
    )


@pytest.fixture(scope="session")
def fleet_oracle():
    """:func:`legacy_fleet_oracle`, the per-step reference of a fleet run."""
    return legacy_fleet_oracle


@pytest.fixture(scope="session")
def batch_oracle():
    """:func:`legacy_batch_oracle`, the per-step reference of ``batch_simulate``."""
    return legacy_batch_oracle
