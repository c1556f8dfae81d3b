"""The paper's primary contribution: formal attack-vector synthesis and
variable-threshold synthesis for residue-based detectors.

Module map (paper artefact → implementation):

* Algorithm 1 (``ATTVECSYN``)       → :func:`repro.core.attack_synthesis.synthesize_attack`
                                      (incremental: :class:`repro.core.session.SynthesisSession`)
* Algorithm 2 (pivot-based)         → :class:`repro.core.pivot.PivotThresholdSynthesizer`
* Algorithm 3 (step-wise) + MinAreaRectangle
                                    → :class:`repro.core.stepwise.StepwiseThresholdSynthesizer`,
                                      :func:`repro.core.stepwise.min_area_rectangle`
* provably-safe static baseline     → :class:`repro.core.static_synthesis.StaticThresholdSynthesizer`
* FAR study (§IV)                   → :class:`repro.core.far.FalseAlarmEvaluator`

The end-to-end flow is :func:`repro.api.run_pipeline`.
"""

from repro.core.specs import (
    StateCondition,
    PerformanceCriterion,
    ReachSetCriterion,
    FractionOfTargetCriterion,
    StateBoundCriterion,
    CompositeCriterion,
)
from repro.core.problem import SynthesisProblem
from repro.core.unroll import ClosedLoopUnrolling, AffineConstraint
from repro.core.encoding import AttackEncoding
from repro.core.attack_synthesis import AttackSynthesisResult, synthesize_attack
from repro.core.session import SynthesisSession
from repro.core.pivot import PivotThresholdSynthesizer
from repro.core.stepwise import StepwiseThresholdSynthesizer, min_area_rectangle
from repro.core.static_synthesis import StaticThresholdSynthesizer
from repro.core.relaxation import ThresholdRelaxer, RelaxationResult
from repro.core.synthesis_result import ThresholdSynthesisResult
from repro.core.far import FalseAlarmEvaluator, FalseAlarmStudy

__all__ = [
    "StateCondition",
    "PerformanceCriterion",
    "ReachSetCriterion",
    "FractionOfTargetCriterion",
    "StateBoundCriterion",
    "CompositeCriterion",
    "SynthesisProblem",
    "ClosedLoopUnrolling",
    "AffineConstraint",
    "AttackEncoding",
    "AttackSynthesisResult",
    "synthesize_attack",
    "SynthesisSession",
    "PivotThresholdSynthesizer",
    "StepwiseThresholdSynthesizer",
    "min_area_rectangle",
    "StaticThresholdSynthesizer",
    "ThresholdRelaxer",
    "RelaxationResult",
    "ThresholdSynthesisResult",
    "FalseAlarmEvaluator",
    "FalseAlarmStudy",
]
