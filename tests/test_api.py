"""The package's public surface, pinned so that adding or removing public API
is a reviewed edit of this list."""

import subprocess
import sys
import types
from pathlib import Path

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


def test_imports_with_the_standard_library_alone():
    """The package needs no third-party module: with site-packages (``-S``)
    and ``PYTHONPATH`` (``-E``) off the path, every layer still imports."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "import streamguard.cli, streamguard.ablation")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1], timeout=60)
    assert proc.returncode == 0, proc.stderr
