"""Evaluation metrics: detection rate, warning precision, phase
distribution, weighted safety score, error taxonomy, severity confusion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Optional, Sequence

from .annotations import classify_phase
from .model import (
    CaseAnnotation,
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


def _join(preds: Sequence[PredictionRecord], anns: dict) -> list:
    """(annotation, record or None) per annotated case, in annotation order.

    Rejects a duplicate record and a record with no annotation.
    """
    by_case = _pred_map(preds)
    if not by_case.keys() <= anns.keys():
        raise MissingAnnotation(next(c for c in by_case if c not in anns))
    return [(ann, by_case.get(ann.case_id)) for ann in anns.values()]


def classify_error(pred: Optional[PredictionRecord], ann: CaseAnnotation,
                   phase: Optional[Phase] = None) -> ErrorType:
    """Assign one case to the five-way error taxonomy.

    Precedence: format error, then premature alert, then late alert, then
    the two Safe-verdict failure modes keyed on reasoning difficulty.  A
    caller that has phased a hazard record's alert passes that ``phase``;
    otherwise it is ``classify_phase(pred.timestamp, ann)``.
    """
    if pred is not None and pred.parse_status == "format_error":
        return ErrorType.FORMAT_ERROR
    if pred is not None and pred.is_hazard:
        if phase is None:
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


@dataclass(frozen=True)
class SeverityConfusion:
    """Counts of claimed vs annotated severity, with bias rates."""

    counts: dict  # (claim, truth) -> int
    n: int
    over_rate: float
    under_rate: float
    exact_rate: float


def severity_confusion(preds: Sequence[PredictionRecord], anns: dict) -> SeverityConfusion:
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
    """Everything one evaluated model produces for the summary table, and
    the per-case error types that ``error_fractions`` counts.

    ``case_errors`` maps each annotated ``case_id``, in annotation order, to
    its ``classify_error`` result: the rows ``errors`` writes.  It is kept
    out of ``repr``.
    """

    n_total: int
    hdr: float
    ewp: Optional[float]
    phase_fractions: dict  # Phase -> float
    wss: float
    error_fractions: dict  # ErrorType -> float
    case_errors: dict = field(repr=False)  # case_id -> ErrorType

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
            out[f"err_{err.value}"] = self.error_fractions[err]
        return out


def build_report(preds: Sequence[PredictionRecord], anns: dict,
                 scores: Optional[PhaseScoreTable] = None) -> MetricsReport:
    """Compute the full metric suite for one prediction set in one pass.

    ``anns`` maps each ``case_id`` to its ``CaseAnnotation``, as
    ``load_annotations`` returns it.  Each case is joined, phased and
    error-classified once, and its error type is kept in the report's
    ``case_errors``.  EWP's window ``[intent, impact]`` holds exactly the
    Optimal, Suboptimal and Irreversible alerts (``classify_phase``), so it
    is read from those three counts.
    """
    scores = scores or PhaseScoreTable.default()
    n_total = len(anns)
    if n_total < 1:
        raise EmptyDataset("annotation set is empty")
    n_hazard = 0
    counts = {phase: 0 for phase in Phase}
    errors = {e: 0 for e in ErrorType}
    case_errors = {}
    for ann, pred in _join(preds, anns):
        hazard = pred is not None and pred.is_hazard
        n_hazard += hazard
        phase = classify_phase(pred.timestamp if hazard else None, ann)
        counts[phase] += 1
        case_errors[ann.case_id] = err = classify_error(pred, ann, phase)
        errors[err] += 1
    in_window = counts[Phase.OPTIMAL] + counts[Phase.SUBOPTIMAL] + counts[Phase.IRREVERSIBLE]
    wss = sum(scores[phase] * n for phase, n in counts.items()) / n_total

    return MetricsReport(
        n_total=n_total,
        hdr=n_hazard / n_total,
        ewp=in_window / n_hazard if n_hazard else None,
        phase_fractions={phase: counts[phase] / n_total for phase in Phase},
        wss=wss,
        error_fractions={e: n / n_total for e, n in errors.items()},
        case_errors=case_errors,
    )
