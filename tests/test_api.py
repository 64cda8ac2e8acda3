"""The package's public surface, pinned so that adding or removing public API
is a reviewed edit of this list."""

import types

import streamguard

PUBLIC_SURFACE = [
    "AlertSource",
    "AnnotationSet",
    "BinaryDecision",
    "CaseAnnotation",
    "CoordinatorConfig",
    "DecisionTrace",
    "EndpointConfig",
    "ErrorType",
    "Frame",
    "FrameManifest",
    "KeyFrames",
    "MetricsReport",
    "Phase",
    "PhaseScoreTable",
    "PredictionRecord",
    "PromptTemplate",
    "RemoteBackend",
    "SafetyState",
    "ScheduleRule",
    "ScriptedBackend",
    "WindowPlan",
    "agreement_table",
    "build_report",
    "build_windows",
    "classify_error",
    "classify_phase",
    "cohens_kappa",
    "compute_ewp",
    "compute_hdr",
    "compute_pda",
    "compute_wss",
    "icc_a1",
    "keyframe_mae",
    "lins_ccc",
    "load_annotations",
    "load_prompt",
    "run_baseline_case",
    "run_case",
    "severity_confusion",
]


def test_public_surface():
    # Submodules become package attributes once anything imports them, so
    # they are left out: the result must not depend on test order.
    names = sorted(name for name, value in vars(streamguard).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_SURFACE
