"""Discrete linear time-invariant (LTI) plant substrate.

Provides the plant-model abstraction used throughout the library (the paper's
``S``: ``x_{k+1} = A x_k + B u_k + w_k``, ``y_k = C x_k + D u_k + v_k``),
zero-order-hold continuous-to-discrete conversion, and the closed-loop
simulation engine with noise and attack injection hooks.
"""

from repro.lti.model import StateSpace
from repro.lti.discretize import discretize
from repro.lti.simulate import (
    ClosedLoopSystem,
    SimulationOptions,
    SimulationTrace,
    simulate_closed_loop,
)

__all__ = [
    "StateSpace",
    "discretize",
    "ClosedLoopSystem",
    "SimulationOptions",
    "SimulationTrace",
    "simulate_closed_loop",
]
