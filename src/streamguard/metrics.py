"""Evaluation metrics: detection rate, warning precision, phase
distribution, weighted safety score, error taxonomy, severity confusion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

from .annotations import AnnotationSet, classify_phase
from .model import (
    CaseAnnotation,
    DANGER_CATEGORIES,
    DIFFICULTY_LEVELS,
    LOCATIONS,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    SEVERITY_CLAIMS,
    SEVERITY_LEVELS,
)


class MetricsError(Exception):
    pass


class EmptyDataset(MetricsError):
    pass


class MissingAnnotation(MetricsError):
    def __init__(self, case_id: str):
        self.case_id = case_id
        super().__init__(f"no annotation for case {case_id!r}")


class ErrorType(str, Enum):
    FORMAT_ERROR = "format_error"
    OVER_REACTION = "over_reaction"
    RESPONSE_LAG = "response_lag"
    VISUAL_OMISSION = "visual_omission"
    REASONING_DEFICIT = "reasoning_deficit"
    NO_ERROR = "no_error"


def _pred_map(preds: Sequence[PredictionRecord]) -> dict:
    out: dict[str, PredictionRecord] = {}
    for p in preds:
        if p.case_id in out:
            raise MetricsError(f"multiple prediction records for case {p.case_id!r}")
        out[p.case_id] = p
    return out


def _join(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> list:
    """(annotation, record or None) per annotated case, in annotation order.

    Rejects a duplicate record and a record with no annotation.
    """
    by_case, cases = _pred_map(preds), anns.cases
    if not by_case.keys() <= cases.keys():
        raise MissingAnnotation(next(c for c in by_case if c not in cases))
    return [(ann, by_case.get(ann.case_id)) for ann in cases.values()]


def classify_error(pred: Optional[PredictionRecord], ann: CaseAnnotation) -> ErrorType:
    """Assign one case to the five-way error taxonomy.

    Precedence: format error, then premature alert, then late alert, then
    the two Safe-verdict failure modes keyed on reasoning difficulty.
    """
    if pred is not None and pred.parse_status == "format_error":
        return ErrorType.FORMAT_ERROR
    if pred is not None and pred.is_hazard:
        phase = classify_phase(pred.timestamp, ann)
        if phase == Phase.PREMATURE:
            return ErrorType.OVER_REACTION
        if phase in (Phase.IRREVERSIBLE, Phase.MISSED):
            return ErrorType.RESPONSE_LAG
        return ErrorType.NO_ERROR
    # Safe verdict (or no record at all).
    reasoning = "" if pred is None else pred.reasoning_text
    mentioned = mentioned_entities(reasoning, ann.key_entities)
    if ann.difficulty in ("D1", "D2") and not mentioned:
        return ErrorType.VISUAL_OMISSION
    if ann.difficulty == "D3" and mentioned:
        return ErrorType.REASONING_DEFICIT
    return ErrorType.NO_ERROR


@lru_cache(maxsize=1024)
def _entity_pattern(entity: str) -> re.Pattern:
    """The compiled whole-word pattern for one entity, kept for later calls."""
    return re.compile(r"\b" + re.escape(entity) + r"\b")


def mentioned_entities(text: str, entities: Sequence[str]) -> list:
    """Entities present in text as case-insensitive whole-word matches.

    Multiword entities match as contiguous substrings on word boundaries.
    An empty text mentions nothing.
    """
    if not text:
        return []
    lowered = text.lower()
    return [entity for entity in entities if _entity_pattern(entity).search(lowered)]


def case_errors(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> dict:
    """Each annotated case's error type, keyed by case_id in annotation order."""
    if len(anns) < 1:
        raise EmptyDataset("annotation set is empty")
    return {ann.case_id: classify_error(pred, ann) for ann, pred in _join(preds, anns)}


@dataclass(frozen=True)
class SeverityConfusion:
    """Counts of claimed vs annotated severity, with bias rates."""

    counts: dict  # (claim, truth) -> int
    n: int
    over_rate: float
    under_rate: float
    exact_rate: float


def severity_confusion(preds: Sequence[PredictionRecord], anns: AnnotationSet) -> SeverityConfusion:
    """5x4 confusion of severity claims (None/L1..L4) against truth (L1..L4)."""
    counts = {(c, t): 0 for c in SEVERITY_CLAIMS for t in SEVERITY_LEVELS}
    over = under = exact = n = 0
    for ann, pred in _join(preds, anns):
        if pred is None or pred.severity_claim is None:
            continue
        claim, truth = pred.severity_claim, ann.severity
        counts[(claim, truth)] += 1
        n += 1
        claim_idx = SEVERITY_CLAIMS.index(claim)
        truth_idx = SEVERITY_CLAIMS.index(truth)
        if claim_idx > truth_idx:
            over += 1
        elif claim_idx < truth_idx:
            under += 1
        else:
            exact += 1
    if n == 0:
        return SeverityConfusion(counts=counts, n=0, over_rate=0.0, under_rate=0.0, exact_rate=0.0)
    return SeverityConfusion(counts=counts, n=n, over_rate=over / n,
                             under_rate=under / n, exact_rate=exact / n)


@dataclass(frozen=True)
class MetricsReport:
    """Everything one evaluated model produces for the summary table."""

    n_total: int
    hdr: float
    ewp: Optional[float]
    phase_fractions: dict  # Phase -> float
    wss: float
    error_fractions: dict = field(default_factory=dict)  # ErrorType -> float
    strata: dict = field(default_factory=dict)  # dim -> value -> sub-report dict

    def row(self, model: str = "") -> dict:
        """The flat CSV/stdout row mirroring the main results table layout."""
        out = {
            "model": model,
            "n_total": self.n_total,
            "hdr": self.hdr,
            "ewp": "" if self.ewp is None else self.ewp,
            "p_premature": self.phase_fractions[Phase.PREMATURE],
            "p_optimal": self.phase_fractions[Phase.OPTIMAL],
            "p_suboptimal": self.phase_fractions[Phase.SUBOPTIMAL],
            "p_irreversible": self.phase_fractions[Phase.IRREVERSIBLE],
            "p_missed": self.phase_fractions[Phase.MISSED],
            "wss": self.wss,
        }
        for err in ErrorType:
            out[f"err_{err.value}"] = self.error_fractions.get(err, "")
        return out


_STRATA_DIMS = {
    "danger_category": DANGER_CATEGORIES,
    "severity": SEVERITY_LEVELS,
    "difficulty": DIFFICULTY_LEVELS,
    "location": LOCATIONS,
}


def _tally(rows: Sequence[tuple], scores: PhaseScoreTable) -> tuple:
    """(hazard count, phase counts, WSS) over non-empty (annotation, hazard, phase) rows."""
    counts = {phase: 0 for phase in Phase}
    for _, _, phase in rows:
        counts[phase] += 1
    wss = sum(scores[phase] * n for phase, n in counts.items()) / len(rows)
    return sum(hazard for _, hazard, _ in rows), counts, wss


def build_report(preds: Sequence[PredictionRecord], anns: AnnotationSet,
                 scores: Optional[PhaseScoreTable] = None,
                 with_strata: bool = False) -> MetricsReport:
    """Compute the full metric suite for one prediction set in one pass.

    Each case is joined, phased, window-tested and error-classified once;
    the whole-set figures and every stratum are counts over those results.
    """
    scores = scores or PhaseScoreTable.default()
    n_total = len(anns)
    if n_total < 1:
        raise EmptyDataset("annotation set is empty")
    rows = []  # (annotation, hazard flag, phase) per case
    in_window = 0
    errors = {e: 0 for e in ErrorType}
    for ann, pred in _join(preds, anns):
        hazard = pred is not None and pred.is_hazard
        kf = ann.key_frames
        in_window += hazard and kf.intent_onset <= pred.timestamp <= kf.impact
        errors[classify_error(pred, ann)] += 1
        rows.append((ann, hazard, classify_phase(pred.timestamp if hazard else None, ann)))
    n_hazard, counts, wss = _tally(rows, scores)

    strata: dict = {}
    if with_strata:
        for dim, values in _STRATA_DIMS.items():
            strata[dim] = {}
            for value in values:
                sub = [row for row in rows if getattr(row[0], dim) == value]
                if sub:
                    sub_hazard, _, sub_wss = _tally(sub, scores)
                    strata[dim][value] = {"n": len(sub), "hdr": sub_hazard / len(sub),
                                          "wss": sub_wss}

    return MetricsReport(
        n_total=n_total,
        hdr=n_hazard / n_total,
        ewp=in_window / n_hazard if n_hazard else None,
        phase_fractions={phase: counts[phase] / n_total for phase in Phase},
        wss=wss,
        error_fractions={e: n / n_total for e, n in errors.items()},
        strata=strata,
    )
