"""Annotation dataset loading and temporal phase classification."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .model import (JSON_ERRORS, CaseAnnotation, ModelError, Phase, SchemaError,
                    decode_json_array)


class IoError(ModelError):
    """The annotation file could not be read."""


class DuplicateCaseError(ModelError):
    """Two cases in the same file share a case_id."""


@dataclass(frozen=True)
class AnnotationSet:
    """All validated case annotations from one file."""

    cases: dict  # case_id -> CaseAnnotation

    def __len__(self) -> int:
        return len(self.cases)

    def __getitem__(self, case_id: str) -> CaseAnnotation:
        return self.cases[case_id]

    def __contains__(self, case_id: str) -> bool:
        return case_id in self.cases

    def __iter__(self):
        return iter(self.cases.values())


def load_annotations(path: str) -> AnnotationSet:
    """Load a JSON array of case annotations, validating every case.

    Raises IoError on unreadable files, SchemaError on malformed entries,
    and the KeyFrames constructors' OrderingError / DeadlineError on
    lifecycle violations.  The array is decoded one case at a time
    (``model.decode_json_array``), so the file's decoded JSON is never held
    whole; a JSON error anywhere in the file, nesting too deep to decode
    included, wins over a case's error and raises SchemaError.
    """
    cases: dict[str, CaseAnnotation] = {}

    def add(entry) -> None:
        ann = CaseAnnotation.from_dict(entry)
        if ann.case_id in cases:
            raise DuplicateCaseError(f"duplicate case_id {ann.case_id!r} in {path}")
        cases[ann.case_id] = ann

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if decode_json_array(text, add) is None:
            json.loads(text)  # raises for malformed text
            raise SchemaError(f"{path} must contain a JSON array of cases")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except JSON_ERRORS as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return AnnotationSet(cases=cases)


def classify_phase(prediction: Optional[float], ann: CaseAnnotation) -> Phase:
    """Place a predicted hazard timestamp into its temporal phase.

    Lower boundaries are inclusive: [intent, deadline] is Optimal,
    (deadline, pnr] Suboptimal, (pnr, impact] Irreversible.  An absent
    prediction, or one after impact, is Missed.
    """
    if prediction is None:
        return Phase.MISSED
    kf = ann.key_frames
    if prediction < kf.intent_onset:
        return Phase.PREMATURE
    if prediction <= kf.intervention_deadline:
        return Phase.OPTIMAL
    if prediction <= kf.pnr:
        return Phase.SUBOPTIMAL
    if prediction <= kf.impact:
        return Phase.IRREVERSIBLE
    return Phase.MISSED
