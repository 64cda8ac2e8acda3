"""Inter-annotator agreement statistics for dual-annotated datasets.

Cohen's kappa for categorical fields; Lin's concordance, ICC(A,1) and
MAE for the continuous key-frame timestamps.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Sequence

import numpy as np

from .annotations import AnnotationSet


class AgreementError(Exception):
    pass


class LengthMismatch(AgreementError):
    pass


class EmptyInput(AgreementError):
    pass


class DegenerateVariance(AgreementError):
    pass


def _paired(x, y, min_len: int, what: str):
    if len(x) != len(y):
        raise LengthMismatch(f"{what}: lengths {len(x)} and {len(y)} differ")
    if len(x) < min_len:
        raise EmptyInput(f"{what}: need at least {min_len} pairs, got {len(x)}")


def cohens_kappa(a: Sequence, b: Sequence) -> float:
    """Chance-corrected agreement between two label sequences."""
    _paired(a, b, 1, "kappa")
    n = len(a)
    p_o = sum(1 for x, y in zip(a, b) if x == y) / n
    labels = set(a) | set(b)
    count_a, count_b = Counter(a), Counter(b)
    p_e = sum((count_a[l] / n) * (count_b[l] / n) for l in labels)
    if p_e >= 1.0 - 1e-12:
        # Both raters used a single identical label; agreement is perfect.
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def lins_ccc(x: Sequence[float], y: Sequence[float]) -> float:
    """Lin's concordance correlation, with population (1/n) moments."""
    _paired(x, y, 2, "ccc")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    mx, my = xa.mean(), ya.mean()
    vx, vy = xa.var(), ya.var()
    cov = ((xa - mx) * (ya - my)).mean()
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        # Both series constant and equal: perfect concordance.
        return 1.0
    return float(2.0 * cov / denom)


def icc_a1(x: Sequence[float], y: Sequence[float]) -> float:
    """ICC(A,1): two-way random effects, absolute agreement, single rater."""
    _paired(x, y, 3, "icc")
    data = np.column_stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)])
    n, k = data.shape
    grand = data.mean()
    row_means = data.mean(axis=1)
    col_means = data.mean(axis=0)
    ss_total = ((data - grand) ** 2).sum()
    ss_rows = k * ((row_means - grand) ** 2).sum()
    ss_cols = n * ((col_means - grand) ** 2).sum()
    ss_err = ss_total - ss_rows - ss_cols
    ms_rows = ss_rows / (n - 1)
    ms_cols = ss_cols / (k - 1)
    ms_err = ss_err / ((n - 1) * (k - 1))
    denom = ms_rows + (k - 1) * ms_err + (k / n) * (ms_cols - ms_err)
    if abs(denom) < 1e-15:
        if abs(ms_rows - ms_err) < 1e-15:
            return 1.0  # all observations identical
        raise DegenerateVariance("icc denominator is zero")
    return float((ms_rows - ms_err) / denom)


def keyframe_mae(x: Sequence[float], y: Sequence[float]) -> float:
    """Mean absolute difference between paired timestamps, in seconds."""
    _paired(x, y, 1, "mae")
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    return float(np.abs(xa - ya).mean())


KEYFRAME_FIELDS = ("intent_onset", "pnr", "intervention_deadline", "impact", "action_end")
CATEGORICAL_FIELDS = ("danger_category", "severity", "difficulty")


def agreement_table(set_a: AnnotationSet, set_b: AnnotationSet) -> dict:
    """Agreement statistics over the cases marked valid by both annotators.

    Returns keyframe rows (ccc / icc_a1 / mae per field) and kappa per
    categorical field, plus the size of the both-valid subset.
    """
    cases_a, cases_b = set_a.cases, set_b.cases
    shared = sorted(cases_a.keys() & cases_b.keys())
    valid = [(a, b) for a, b in zip(map(cases_a.get, shared), map(cases_b.get, shared))
             if a.is_valid and b.is_valid]
    if not valid:
        raise EmptyInput("no cases are valid in both annotation sets")
    side_a, side_b = zip(*valid)
    frames_a = list(map(attrgetter("key_frames"), side_a))
    frames_b = list(map(attrgetter("key_frames"), side_b))

    keyframes = {}
    for fld in KEYFRAME_FIELDS:
        get = attrgetter(fld)
        xs, ys = list(map(get, frames_a)), list(map(get, frames_b))
        keyframes[fld] = {
            "ccc": lins_ccc(xs, ys),
            "icc_a1": icc_a1(xs, ys),
            "mae": keyframe_mae(xs, ys),
        }

    kappas = {}
    for fld in CATEGORICAL_FIELDS:
        get = attrgetter(fld)
        kappas[fld] = cohens_kappa(list(map(get, side_a)), list(map(get, side_b)))

    return {"n_both_valid": len(valid), "keyframes": keyframes, "kappa": kappas}
