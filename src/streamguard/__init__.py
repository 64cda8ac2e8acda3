"""Dual-brain streaming safety coordinator and evaluation harness."""

from .annotations import AnnotationSet, classify_phase, load_annotations
from .backends import (
    EndpointConfig,
    PromptTemplate,
    RemoteBackend,
    ScheduleRule,
    ScriptedBackend,
    load_prompt,
)
from .baseline import WindowPlan, build_windows, run_baseline_case
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
    BinaryDecision,
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
