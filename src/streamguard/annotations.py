"""Annotation dataset loading and temporal phase classification."""

from __future__ import annotations

import json
from typing import Optional

from .model import (JSON_ERRORS, CaseAnnotation, ModelError, Phase, SchemaError,
                    decode_json_array)


class DuplicateCaseError(ModelError):
    """Two cases in the same file share a case_id."""


def load_annotations(path: str) -> dict[str, CaseAnnotation]:
    """Load a JSON array of case annotations, validating every case.

    Returns the cases keyed by ``case_id``, in file order: the plain dict
    that ``build_report``, ``severity_confusion``, ``agreement_table`` and
    ``sweep_fps`` take.  Its ``values()`` are the cases.

    Raises OSError, as ``open`` raised it, on a file that cannot be opened
    or read, SchemaError on malformed entries, and the KeyFrames
    constructors' OrderingError / DeadlineError on lifecycle violations.
    The array is decoded one case at a time (``model.decode_json_array``),
    so the file's decoded JSON is never held whole; a JSON error anywhere
    in the file, nesting too deep to decode included, wins over a case's
    error and raises SchemaError.
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
    except JSON_ERRORS as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    return cases


def classify_phase(prediction: Optional[float], ann: CaseAnnotation) -> Phase:
    """Place a predicted hazard timestamp into its temporal phase.

    An absent prediction, or one after impact, is Missed.  Otherwise lower
    boundaries are inclusive: before intent onset is Premature, [intent,
    deadline] Optimal, (deadline, pnr] Suboptimal, (pnr, impact]
    Irreversible.  Impact is tested first because the key frames' ordering
    tolerance (1e-9) lets ``pnr`` and the deadline lie just past ``impact``:
    an alert in that gap is still Missed.  So the three in-window phases are
    exactly the alerts in EWP's ``[intent, impact]``.
    """
    if prediction is None:
        return Phase.MISSED
    kf = ann.key_frames
    if prediction > kf.impact:
        return Phase.MISSED
    if prediction < kf.intent_onset:
        return Phase.PREMATURE
    if prediction <= kf.intervention_deadline:
        return Phase.OPTIMAL
    if prediction <= kf.pnr:
        return Phase.SUBOPTIMAL
    return Phase.IRREVERSIBLE
