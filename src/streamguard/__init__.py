"""Dual-brain streaming safety coordinator and evaluation harness."""

from .annotations import classify_phase, load_annotations
from .backends import (
    EndpointConfig,
    PromptTemplate,
    RemoteBackend,
    ScriptedBackend,
    load_prompt,
)
from .baseline import build_windows, run_baseline_case
from .coordinator import CoordinatorConfig, run_case
from .metrics import (
    ErrorType,
    MetricsReport,
    build_report,
    classify_error,
    severity_confusion,
)
from .agreement import agreement_table, cohens_kappa, icc_a1, keyframe_mae, lins_ccc
from .model import (
    AlertSource,
    CaseAnnotation,
    DecisionTrace,
    Frame,
    FrameManifest,
    KeyFrames,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    SafetyState,
)

__version__ = "0.1.0"
