"""Golden plain-data forms of the serializable configs.

Store keys hash each config's ``to_dict()``, so its JSON text is part of
the on-disk contract: a changed text makes every existing store miss
silently.  Each class below is pinned on one non-default instance, nested
configs, tuples and nested dicts included, against the text its
serialization produced when the stores in use were written.
"""

import json

import pytest

from repro.api.config import (
    ExperimentSpec,
    ExperimentUnit,
    FARConfig,
    RelaxConfig,
    RuntimeConfig,
    ServiceConfig,
    SynthesisConfig,
)
from repro.api.runner import ExperimentRow
from repro.explore.engine import ExploreConfig
from repro.explore.space import SearchSpace

RELAX = RelaxConfig(floor=0.05, preserve_monotonicity=False, raise_cap=2.0, verify_input=True)
SYNTHESIS = SynthesisConfig(
    algorithms=("pivot", "static"),
    max_rounds=40,
    min_threshold=0.01,
    time_budget_per_call=5.0,
    backend_options={"margin_mode": "none"},
    algorithm_options={"pivot": {"pivot_rule": "first-violation"}},
    relax=RELAX,
)
FAR = FARConfig(
    count=50,
    seed=3,
    noise_model="bounded-uniform",
    noise_options={"bounds": (0.01, 0.02)},
    noise_scale=2.0,
    include_process_noise=True,
    filter_pfc=False,
    filter_mdc=False,
    initial_state_spread=(0.1, 0.2),
)
SPACE = SearchSpace(
    case_studies=("dcmotor", "vsc"),
    synthesizers=("pivot", "static"),
    detectors=("online-residue", "online-cusum"),
    horizons=(10, 8),
    noise_scales=(2.0, 0.5),
    min_thresholds=(0.0, 0.02),
    far_budgets=(0.1, 1.0),
    max_rounds=60,
    relax={"floor": 0.1},
    far_count=40,
    far_seed=2,
    filter_pfc=True,
    probe_instances=8,
    probe_horizon=12,
    probe_attack="ramp",
    probe_attack_options={"slope": 0.5},
    probe_attack_start=3,
    probe_biases=(2.0, 1.2),
    probe_seed=5,
)

INSTANCES = {
    "RelaxConfig": RELAX,
    "SynthesisConfig": SYNTHESIS,
    "FARConfig": FAR,
    "RuntimeConfig": RuntimeConfig(
        n_instances=16,
        horizon=12,
        case_study="dcmotor",
        case_study_options={"horizon": 12},
        synthesis=SYNTHESIS,
        static_thresholds={"fixed": 1},
        detectors={
            "chi": {"name": "online-chi-square", "options": {"false_alarm_probability": 0.01}},
            "cs": "online-cusum",
        },
        include_mdc=False,
        noise_model="gaussian",
        noise_options={"scale": 0.5},
        noise_scale=1.5,
        include_process_noise=True,
        initial_state_spread=[0.1, 0.0],
        attacks=[{"template": "bias", "options": {"bias": 0.3}, "fraction": 0.25, "start": 4}],
        seed=9,
        events_path="events.jsonl",
        record_traces=True,
    ),
    "ServiceConfig": ServiceConfig(
        case_study="vsc",
        case_study_options={"horizon": 6},
        synthesis=SYNTHESIS,
        static_thresholds={"fixed": 0.5},
        detectors={"cs": {"name": "online-cusum"}},
        include_mdc=False,
        residue_source="ingest",
        ring_capacity=8,
        overflow="error",
        auto_drain=False,
        log_path="service.jsonl",
        flush_every=0,
        sink_capacity=32,
        sink_policy="drop-newest",
    ),
    "ExperimentUnit": ExperimentUnit(
        "dcmotor",
        "lp",
        "stepwise",
        case_study_options={"horizon": 9},
        max_rounds=70,
        min_threshold=0.02,
        relax=RELAX,
        far=FAR,
        probe={
            "n_instances": 4,
            "attack": {"template": "bias", "options": {}},
            "biases": [1.1, 3.0],
        },
    ),
    "ExperimentSpec": ExperimentSpec(
        name="golden",
        case_studies=("dcmotor", "cruise"),
        backends=("lp",),
        algorithms=("stepwise",),
        case_study_options={"dcmotor": {"horizon": 10}},
        max_rounds=80,
        min_threshold=0.03,
        far=FAR,
    ),
    "ExperimentRow": ExperimentRow(
        "dcmotor",
        "lp",
        "pivot",
        status="sat",
        vulnerable=True,
        converged=True,
        rounds=7,
        solver_time_s=0.125,
        false_alarm_rate=0.25,
        metrics={"stealth_margin": 0.5, "mean_detection_latency_x1.1": None},
    ),
    "ExploreConfig": ExploreConfig(
        space=SPACE,
        sampler="adaptive-bisection",
        sampler_options={"max_depth": 2},
        store_path="store",
        workers="auto",
        max_points=10,
        objectives=("false_alarm_rate", "stealth_margin"),
        name="golden",
    ),
    "SearchSpace": SPACE,
}

_RELAX_TEXT = (
    '{"floor": 0.05, "preserve_monotonicity": false, "raise_cap": 2.0, "verify_input": true}'
)
_SYNTHESIS_TEXT = (
    '{"algorithms": ["pivot", "static"], "backend": "lp", "max_rounds": 40, '
    '"min_threshold": 0.01, "time_budget_per_call": 5.0, '
    '"backend_options": {"margin_mode": "none"}, '
    '"algorithm_options": {"pivot": {"pivot_rule": "first-violation"}}, '
    f'"relax": {_RELAX_TEXT}}}'
)
_FAR_TEXT = (
    '{"count": 50, "seed": 3, "noise_model": "bounded-uniform", '
    '"noise_options": {"bounds": [0.01, 0.02]}, "noise_scale": 2.0, '
    '"include_process_noise": true, "filter_pfc": false, "filter_mdc": false, '
    '"initial_state_spread": [0.1, 0.2]}'
)
_SPACE_TEXT = (
    '{"case_studies": ["dcmotor", "vsc"], "synthesizers": ["pivot", "static"], '
    '"backends": ["lp"], "detectors": ["online-residue", "online-cusum"], '
    '"horizons": [8, 10], "noise_scales": [0.5, 2.0], "min_thresholds": [0.0, 0.02], '
    '"far_budgets": [0.1, 1.0], "max_rounds": 60, '
    '"relax": {"floor": 0.1, "preserve_monotonicity": true, "raise_cap": null, '
    '"verify_input": false}, "far_count": 40, "far_seed": 2, "filter_pfc": true, '
    '"filter_mdc": false, "probe_instances": 8, "probe_horizon": 12, '
    '"probe_attack": "ramp", "probe_attack_options": {"slope": 0.5}, '
    '"probe_attack_start": 3, "probe_biases": [1.2, 2.0], "probe_seed": 5}'
)

#: ``json.dumps(instance.to_dict())`` of every :data:`INSTANCES` entry.
GOLDEN_TEXT = {
    "RelaxConfig": _RELAX_TEXT,
    "SynthesisConfig": _SYNTHESIS_TEXT,
    "FARConfig": _FAR_TEXT,
    "RuntimeConfig": (
        '{"n_instances": 16, "horizon": 12, "case_study": "dcmotor", '
        f'"case_study_options": {{"horizon": 12}}, "synthesis": {_SYNTHESIS_TEXT}, '
        '"static_thresholds": {"fixed": 1.0}, '
        '"detectors": {"chi": {"name": "online-chi-square", '
        '"options": {"false_alarm_probability": 0.01}}, '
        '"cs": {"name": "online-cusum", "options": {}}}, "include_mdc": false, '
        '"noise_model": "gaussian", "noise_options": {"scale": 0.5}, "noise_scale": 1.5, '
        '"include_process_noise": true, "initial_state_spread": [0.1, 0.0], '
        '"attacks": [{"template": "bias", "options": {"bias": 0.3}, "fraction": 0.25, '
        '"start": 4}], "seed": 9, "events_path": "events.jsonl", "record_traces": true, '
        '"engine": "fused"}'
    ),
    "ServiceConfig": (
        '{"case_study": "vsc", "case_study_options": {"horizon": 6}, '
        f'"synthesis": {_SYNTHESIS_TEXT}, "static_thresholds": {{"fixed": 0.5}}, '
        '"detectors": {"cs": {"name": "online-cusum", "options": {}}}, '
        '"include_mdc": false, "residue_source": "ingest", "ring_capacity": 8, '
        '"overflow": "error", "auto_drain": false, "log_path": "service.jsonl", '
        '"flush_every": 0, "sink_capacity": 32, "sink_policy": "drop-newest"}'
    ),
    "ExperimentUnit": (
        '{"case_study": "dcmotor", "backend": "lp", "algorithm": "stepwise", '
        '"case_study_options": {"horizon": 9}, "max_rounds": 70, "min_threshold": 0.02, '
        f'"relax": {_RELAX_TEXT}, "far": {_FAR_TEXT}, '
        '"probe": {"n_instances": 4, "attack": {"template": "bias", "options": {}}, '
        '"biases": [1.1, 3.0]}}'
    ),
    "ExperimentSpec": (
        '{"name": "golden", "case_studies": ["dcmotor", "cruise"], "backends": ["lp"], '
        '"algorithms": ["stepwise"], "case_study_options": {"dcmotor": {"horizon": 10}}, '
        f'"max_rounds": 80, "min_threshold": 0.03, "far": {_FAR_TEXT}}}'
    ),
    "ExperimentRow": (
        '{"case_study": "dcmotor", "backend": "lp", "algorithm": "pivot", "status": "sat", '
        '"vulnerable": true, "converged": true, "rounds": 7, "solver_time_s": 0.125, '
        '"false_alarm_rate": 0.25, "error": null, '
        '"metrics": {"stealth_margin": 0.5, "mean_detection_latency_x1.1": null}}'
    ),
    "ExploreConfig": (
        f'{{"space": {_SPACE_TEXT}, "sampler": "adaptive-bisection", '
        '"sampler_options": {"max_depth": 2}, "store_path": "store", "workers": "auto", '
        '"max_points": 10, "objectives": ["false_alarm_rate", "stealth_margin"], '
        '"name": "golden"}'
    ),
    "SearchSpace": _SPACE_TEXT,
}


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_plain_data_text_is_pinned(name):
    instance = INSTANCES[name]
    assert type(instance).__name__ == name
    assert json.dumps(instance.to_dict()) == GOLDEN_TEXT[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_plain_data_rebuilds_to_the_same_text(name):
    instance = INSTANCES[name]
    rebuilt = type(instance).from_dict(json.loads(GOLDEN_TEXT[name]))
    assert json.dumps(rebuilt.to_dict()) == GOLDEN_TEXT[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_json_methods_match_the_pinned_text(name):
    instance = INSTANCES[name]
    assert instance.to_json() == json.dumps(json.loads(GOLDEN_TEXT[name]), indent=2)
    assert type(instance).from_json(GOLDEN_TEXT[name]).to_json(indent=None) == GOLDEN_TEXT[name]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_plain_data_is_derived_not_written_per_class(name):
    own = set(vars(type(INSTANCES[name])))
    assert not own & {"to_dict", "from_dict", "to_json", "from_json"}


def test_unit_far_given_as_a_dict_is_a_far_config():
    from repro.explore.store import unit_store_key

    from_dict = ExperimentUnit("dcmotor", "lp", "stepwise", far={"count": 10})
    from_config = ExperimentUnit("dcmotor", "lp", "stepwise", far=FARConfig(count=10))
    assert from_dict.far == from_config.far
    assert unit_store_key(from_dict.to_dict()) == unit_store_key(from_config.to_dict())
