"""Annotation dataset loading and temporal phase classification."""

from __future__ import annotations

import json
from typing import Optional

from .model import JSON_ERRORS, CaseAnnotation, ModelError, Phase, SchemaError


class DuplicateCaseError(ModelError):
    """Two cases in the same file share a case_id."""


def _case_hook(d: dict):
    """``json.loads``'s object hook: an object that holds ``"key_frames"``
    as its case if it decodes as one, any other object as it is."""
    if "key_frames" in d:
        try:
            return CaseAnnotation.from_dict(d)
        except Exception:  # the loader decodes a failed element again, for its own error
            pass
    return d


def load_annotations(path: str) -> dict[str, CaseAnnotation]:
    """Load a JSON array of case annotations, validating every case.

    Returns the cases keyed by ``case_id``, in file order: the plain dict
    that ``build_report``, ``severity_confusion``, ``agreement_table`` and
    ``sweep_fps`` take.  Its ``values()`` are the cases.

    Raises OSError, as ``open`` raised it, on a file that cannot be opened
    or read, SchemaError on malformed entries, and the KeyFrames
    constructors' OrderingError / DeadlineError on lifecycle violations.

    The file is decoded by one ``json.loads`` call.  Its C scanner hands
    each object to ``_case_hook`` as it closes it, so each case is built
    into its record during the scan and its decoded dict is dropped at
    once; the text itself is dropped before the cases are keyed.  The scan
    covers the whole file before any case is keyed, so a JSON error
    anywhere in it, nesting too deep to decode included, wins over a
    case's error and raises SchemaError.  The first element, in file
    order, that is no case or repeats a ``case_id`` raises.  An element
    the hook left undecoded is decoded again from a plain ``json.loads``
    of the file, for ``CaseAnnotation.from_dict``'s own error: the hook
    may have replaced a case-shaped object nested inside it.  One load of
    the 20,148-case seed-7 score_bulk file takes about 112 ms, where
    reading it one element at a time (``model.decode_json_array``) took
    125 ms (``BENCH_one_scan_annotations.json``).
    """
    cases: dict[str, CaseAnnotation] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            decoded = json.loads(fh.read(), object_hook=_case_hook)
        if type(decoded) is not list:
            raise SchemaError(f"{path} must contain a JSON array of cases")
        for k, ann in enumerate(decoded):
            if type(ann) is not CaseAnnotation:
                with open(path, encoding="utf-8") as fh:
                    ann = CaseAnnotation.from_dict(json.loads(fh.read())[k])
            if ann.case_id in cases:
                raise DuplicateCaseError(f"duplicate case_id {ann.case_id!r} in {path}")
            cases[ann.case_id] = ann
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
