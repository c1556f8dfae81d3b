"""False-alarm-rate (FAR) evaluation.

Reproduces the paper's §IV study: draw a population of random bounded
measurement-noise vectors, keep only those that (a) keep the performance
criterion satisfied and (b) pass the existing monitors, then report — for
each candidate detector — the fraction of the surviving benign traces on
which it raises an alarm.

The benign population is generated with the vectorized fleet stepper
(:func:`repro.runtime.fleet.batch_simulate`): all trials advance together in
batched numpy instead of one Python simulation loop per trial, and detector
evaluation runs over the stacked ``(N, T, m)`` residue tensor in one pass
per detector.  The noise comes from one block draw per population
(:func:`repro.noise.generators.draw_streams`, the call the fleet runtime
makes), so a FAR population of ``N`` and a fleet of ``N`` built from the
same seed see the same randomness, and simulating each trial on its own
from its rows of the blocks gives identical rates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.problem import SynthesisProblem
from repro.detectors.threshold import ThresholdVector
from repro.lti.simulate import SimulationTrace
from repro.noise.generators import draw_streams
from repro.noise.models import BoundedUniformNoise, NoiseModel
from repro.runtime.fleet import batch_simulate
from repro.utils.validation import ValidationError, check_positive


@dataclass
class FalseAlarmStudy:
    """Result of one FAR study.

    Attributes
    ----------
    rates:
        Mapping from detector label to false alarm rate (fraction in [0, 1]).
    generated:
        Number of noise vectors drawn.
    kept:
        Number of benign traces surviving the pfc / mdc filters (the FAR
        denominators).
    discarded_pfc / discarded_mdc:
        How many trials each filter removed.
    """

    rates: dict[str, float] = field(default_factory=dict)
    generated: int = 0
    kept: int = 0
    discarded_pfc: int = 0
    discarded_mdc: int = 0
    details: dict = field(default_factory=dict)

    def rate(self, label: str) -> float:
        """FAR of one detector (by label)."""
        return self.rates[label]


class FalseAlarmEvaluator:
    """Monte-Carlo FAR evaluation over benign (noise-only) traces.

    Parameters
    ----------
    problem:
        The synthesis problem; its closed loop, pfc and mdc define the benign
        population and the filters.
    noise_model:
        Measurement-noise model; defaults to bounded uniform noise with
        per-channel bounds of one standard deviation of the plant's
        measurement-noise covariance (the paper's "suitably small range").
    count:
        Number of noise vectors to draw (the paper used 1000).
    seed:
        RNG seed for reproducibility.
    include_process_noise:
        When True the plant's process noise is also sampled (the paper's
        study perturbs measurements only, so the default is False).
    filter_pfc / filter_mdc:
        Whether to discard trials violating pfc or alarming mdc before
        computing rates (both True per the paper).
    initial_state_spread:
        Optional per-state half-widths of a uniform box around the problem's
        nominal initial state.  Each benign trial draws its initial plant
        state from that box while the estimator still starts at the nominal
        value, producing the realistic early innovation transient of a system
        whose operating point is only approximately known.  ``None`` keeps
        the nominal initial state for every trial.
    """

    def __init__(
        self,
        problem: SynthesisProblem,
        noise_model: NoiseModel | None = None,
        count: int = 1000,
        seed: int | None = 0,
        include_process_noise: bool = False,
        filter_pfc: bool = True,
        filter_mdc: bool = True,
        initial_state_spread: np.ndarray | None = None,
    ):
        self.problem = problem
        self.count = int(check_positive("count", count))
        self.seed = seed
        self.include_process_noise = include_process_noise
        self.filter_pfc = filter_pfc
        self.filter_mdc = filter_mdc
        if initial_state_spread is not None:
            initial_state_spread = np.asarray(initial_state_spread, dtype=float).reshape(-1)
            if initial_state_spread.size != problem.system.plant.n_states:
                raise ValidationError(
                    "initial_state_spread must have one entry per plant state"
                )
            if np.any(initial_state_spread < 0):
                raise ValidationError("initial_state_spread must be non-negative")
        self.initial_state_spread = initial_state_spread
        if noise_model is None:
            noise_model = self.default_noise_model(problem)
        if noise_model.dimension != problem.n_outputs:
            raise ValidationError(
                f"noise model dimension {noise_model.dimension} does not match "
                f"the plant's {problem.n_outputs} outputs"
            )
        self.noise_model = noise_model
        self._traces: list[SimulationTrace] | None = None
        self._residue_stack: np.ndarray | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def default_noise_model(problem: SynthesisProblem, scale: float = 1.0) -> NoiseModel:
        """Bounded uniform noise with bounds of ``scale`` sigma of the measurement noise."""
        std = problem.system.plant.measurement_noise_std()
        if not np.any(std > 0):
            raise ValidationError(
                "plant has no measurement-noise covariance; pass an explicit noise_model"
            )
        return BoundedUniformNoise(bounds=float(scale) * std)

    # ------------------------------------------------------------------
    def benign_traces(self) -> list[SimulationTrace]:
        """The filtered benign population (memoised across evaluate() calls).

        The noise is one block draw for the whole population and all trials
        are simulated together through the vectorized fleet stepper; only
        the pfc/mdc filtering remains per trial.
        """
        if self._traces is not None:
            return self._traces
        problem = self.problem
        plant = problem.system.plant
        T = problem.horizon
        streams = draw_streams(
            self.seed,
            self.count,
            T,
            self.noise_model,
            process_covariance=plant.Q_w if self.include_process_noise else None,
            x0_spread=self.initial_state_spread,
        )
        x0 = problem.x0 if streams.x0_offsets is None else problem.x0 + streams.x0_offsets
        fleet = batch_simulate(
            problem.system,
            T,
            x0=x0,
            measurement_noise=streams.measurement,
            process_noise=streams.process,
        )

        traces: list[SimulationTrace] = []
        self._discarded_pfc = 0
        self._discarded_mdc = 0
        for i in range(self.count):
            trace = fleet.instance(i)
            if self.filter_pfc and not problem.pfc_satisfied(trace):
                self._discarded_pfc += 1
                continue
            if self.filter_mdc and problem.mdc_alarm(trace):
                self._discarded_mdc += 1
                continue
            traces.append(trace)
        self._traces = traces
        self._residue_stack = None
        return traces

    def _residues(self) -> np.ndarray:
        """The surviving population's residues stacked into ``(kept, T, m)``."""
        if getattr(self, "_residue_stack", None) is None:
            traces = self.benign_traces()
            if traces:
                self._residue_stack = np.stack([trace.residues for trace in traces])
            else:
                self._residue_stack = np.zeros((0, self.problem.horizon, self.problem.n_outputs))
        return self._residue_stack

    # ------------------------------------------------------------------
    def evaluate(self, detectors: dict[str, ThresholdVector]) -> FalseAlarmStudy:
        """Compute the FAR of each labelled detector over the benign population."""
        if not detectors:
            raise ValidationError("need at least one detector to evaluate")
        traces = self.benign_traces()
        study = FalseAlarmStudy(
            generated=self.count,
            kept=len(traces),
            discarded_pfc=getattr(self, "_discarded_pfc", 0),
            discarded_mdc=getattr(self, "_discarded_mdc", 0),
        )
        if not traces:
            raise ValidationError(
                "every benign trace was filtered out; reduce the noise bounds or "
                "disable the filters"
            )
        # One vectorized pass per detector over the stacked (kept, T, m)
        # residue tensor: the detector predicate runs over the leading trace
        # axis, row for row the per-trace computation.
        residues = self._residues()
        for label, threshold in detectors.items():
            study.rates[label] = float(np.mean(np.any(threshold.alarms(residues), axis=1)))
        return study

    def evaluate_single(self, threshold: ThresholdVector, label: str = "detector") -> float:
        """FAR of a single detector."""
        return self.evaluate({label: threshold}).rates[label]
