"""Shared fixtures for the test suite.

The fixtures centralise the small plants and closed loops used across many
test modules so individual tests stay focused on behaviour, not setup.  The
``fleet_oracle`` and ``batch_oracle`` fixtures are the independent
references of the runtime equivalence layer: the per-step fleet loops the
runtime ran before both engine names shared one stepping loop and one
detector pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.control.lqr import lqr_gain
from repro.estimation.kalman import steady_state_kalman
from repro.lti.discretize import zoh
from repro.lti.model import StateSpace
from repro.lti.simulate import ClosedLoopSystem
from repro.runtime.events import InMemorySink
from repro.runtime.fleet import FleetTrace, _BatchStepper
from repro.runtime.report import AlarmTally
from repro.utils.rng import ensure_rng, spawn_rngs
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
    return zoh(double_integrator_continuous, 0.1)


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
    """A short-horizon DC-motor problem for the slower (SMT) backend tests."""
    return build_dcmotor_case_study(horizon=8).problem


@pytest.fixture(scope="session")
def small_trajectory_problem():
    """A short-horizon trajectory problem for the slower (SMT) backend tests."""
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
def legacy_batch_oracle(system, X0, Xhat0, V, W=None, A=None) -> dict:
    """The per-step ``batch_simulate`` recording loop over ``_BatchStepper``.

    ``X0``/``Xhat0`` are ``(N, n)``; ``V``/``W``/``A`` are instance-major
    ``(N, T, ·)`` blocks (``None`` means absent).  Returns the recorded
    trace arrays by :class:`~repro.runtime.fleet.FleetTrace` field name.
    """
    plant = system.plant
    N, T = V.shape[0], V.shape[1]
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    stepper = _BatchStepper(system, X0, Xhat0)
    out = {
        "states": np.zeros((N, T + 1, n)),
        "estimates": np.zeros((N, T + 1, n)),
        "inputs": np.zeros((N, T + 1, p)),
        "measurements": np.zeros((N, T, m)),
        "true_outputs": np.zeros((N, T, m)),
        "residues": np.zeros((N, T, m)),
    }
    out["states"][:, 0] = stepper.X
    out["estimates"][:, 0] = stepper.Xhat
    out["inputs"][:, 0] = stepper.U
    for k in range(T):
        y_true, y_attacked, residues = stepper.step(
            V[:, k],
            None if W is None else W[:, k],
            None if A is None else A[:, k],
        )
        out["true_outputs"][:, k] = y_true
        out["measurements"][:, k] = y_attacked
        out["residues"][:, k] = residues
        out["states"][:, k + 1] = stepper.X
        out["estimates"][:, k + 1] = stepper.Xhat
        out["inputs"][:, k + 1] = stepper.U
    return out


def legacy_fleet_oracle(simulator):
    """Run a (not yet run) ``FleetSimulator`` through the per-step fleet loop.

    Same draws as :meth:`FleetSimulator.run`, then one ``_BatchStepper``
    step and one ``detector.step`` per deployed core per sampling instance;
    the resulting ``(T, N)`` alarm stacks go through the shared
    :class:`~repro.runtime.report.AlarmTally`.  Returns
    ``(stats, n_attacked, trace, events)``: per-label stats dicts, the
    attacked-instance count, the recorded :class:`FleetTrace` and the
    event stream.
    """
    sim = simulator
    T, N = sim.horizon, sim.n_instances
    plant = sim.system.plant
    n, m, p = plant.n_states, plant.n_outputs, plant.n_inputs
    rngs = spawn_rngs(sim.seed, N + 1)
    V, W, X0 = sim._draw_streams(rngs[:N])
    schedule = sim._resolve_schedule(ensure_rng(rngs[-1]))
    attacked_mask = np.zeros(N, dtype=bool)
    attack_start = np.full(N, T, dtype=int)
    for (indices, values), entry in zip(schedule, sim.attacks):
        if indices.size and np.any(values):
            attacked_mask[indices] = True
            attack_start[indices] = np.minimum(attack_start[indices], entry.start)
    for detector in sim.detectors.values():
        detector.reset()

    stepper = _BatchStepper(sim.system, X0, sim.xhat0.copy())
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
        y_true, y_attacked, residues = stepper.step(
            V[:, k], None if W is None else W[:, k], attack_k
        )
        recorded["true_outputs"][:, k] = y_true
        recorded["measurements"][:, k] = y_attacked
        recorded["residues"][:, k] = residues
        if attack_k is not None:
            recorded["attacks"][:, k] = attack_k
        recorded["states"][:, k + 1] = stepper.X
        recorded["estimates"][:, k + 1] = stepper.Xhat
        recorded["inputs"][:, k + 1] = stepper.U
        for label, detector in sim.detectors.items():
            values = residues if detector.consumes == "residues" else y_attacked
            alarms[label][k] = detector.step(values)

    tally = AlarmTally(alarms, attacked_mask, attack_start, T)
    sink = InMemorySink()
    tally.publish([sink])
    trace = FleetTrace(
        **recorded,
        process_noise=W if W is not None else np.zeros((N, T, n)),
        measurement_noise=V,
        dt=sim.system.dt,
        metadata={"system": sim.system.name},
    )
    stats = {label: tally.stats(label).to_dict() for label in sim.detectors}
    return stats, int(np.sum(attacked_mask)), trace, list(sink.events)


@pytest.fixture(scope="session")
def fleet_oracle():
    """:func:`legacy_fleet_oracle`, the per-step reference of a fleet run."""
    return legacy_fleet_oracle


@pytest.fixture(scope="session")
def batch_oracle():
    """:func:`legacy_batch_oracle`, the per-step reference of ``batch_simulate``."""
    return legacy_batch_oracle
