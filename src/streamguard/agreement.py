"""Inter-annotator agreement statistics for dual-annotated datasets.

Cohen's kappa for categorical fields; Lin's concordance, ICC(A,1) and
MAE for the continuous key-frame timestamps.
"""

from __future__ import annotations

from collections import Counter
from math import fsum
from operator import attrgetter, mul, sub
from typing import Sequence


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
    # Exactly rounded, so the set's iteration order, which for str labels
    # depends on the hash seed, cannot change the result's last bits.
    p_e = fsum((count_a[l] / n) * (count_b[l] / n) for l in labels)
    if p_e >= 1.0 - 1e-12:
        # Both raters used a single identical label; agreement is perfect.
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def _moments(x: Sequence[float], y: Sequence[float]):
    """The means, population (1/n) variances and covariance of two paired
    series, each sum exactly rounded by ``math.fsum``."""
    n = len(x)
    mx, my = fsum(x) / n, fsum(y) / n
    dx = [v - mx for v in x]
    dy = [v - my for v in y]
    vx = fsum(map(mul, dx, dx)) / n
    vy = fsum(map(mul, dy, dy)) / n
    cov = fsum(map(mul, dx, dy)) / n
    return mx, my, vx, vy, cov


def _ccc(mx: float, my: float, vx: float, vy: float, cov: float) -> float:
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        # Both series constant and equal: perfect concordance.
        return 1.0
    return 2.0 * cov / denom


def _icc(n: int, mx: float, my: float, vx: float, vy: float, cov: float) -> float:
    """ICC(A,1) of ``n`` pairs from their moments.  With k = 2 raters the
    two-way mean squares are rows n(vx + vy + 2cov) / 2(n - 1), error
    n(vx + vy - 2cov) / 2(n - 1) and columns n(mx - my)^2 / 2."""
    ms_rows = n * (vx + vy + 2.0 * cov) / (2.0 * (n - 1))
    ms_err = n * (vx + vy - 2.0 * cov) / (2.0 * (n - 1))
    ms_cols = n * (mx - my) ** 2 / 2.0
    denom = ms_rows + ms_err + (2 / n) * (ms_cols - ms_err)
    if abs(denom) < 1e-15:
        if abs(ms_rows - ms_err) < 1e-15:
            return 1.0  # all observations identical
        raise DegenerateVariance("icc denominator is zero")
    return (ms_rows - ms_err) / denom


def lins_ccc(x: Sequence[float], y: Sequence[float]) -> float:
    """Lin's concordance correlation, with population (1/n) moments."""
    _paired(x, y, 2, "ccc")
    return _ccc(*_moments(x, y))


def icc_a1(x: Sequence[float], y: Sequence[float]) -> float:
    """ICC(A,1): two-way random effects, absolute agreement, single rater."""
    _paired(x, y, 3, "icc")
    return _icc(len(x), *_moments(x, y))


def keyframe_mae(x: Sequence[float], y: Sequence[float]) -> float:
    """Mean absolute difference between paired timestamps, in seconds."""
    _paired(x, y, 1, "mae")
    return fsum(map(abs, map(sub, x, y))) / len(x)


KEYFRAME_FIELDS = ("intent_onset", "pnr", "intervention_deadline", "impact", "action_end")
CATEGORICAL_FIELDS = ("danger_category", "severity", "difficulty")


def agreement_table(set_a: dict, set_b: dict) -> dict:
    """Agreement statistics over the cases marked valid by both annotators.

    Each set maps ``case_id`` to ``CaseAnnotation``, as ``load_annotations``
    returns it.  Returns keyframe rows (ccc / icc_a1 / mae per field) and
    kappa per categorical field, plus the size of the both-valid subset.
    The cases are taken in set A's order: every sum is exactly rounded
    (``math.fsum``), so no statistic depends on the order.
    """
    valid = [(a, b) for case_id, a in set_a.items()
             if a.is_valid and (b := set_b.get(case_id)) is not None and b.is_valid]
    if not valid:
        raise EmptyInput("no cases are valid in both annotation sets")
    side_a, side_b = zip(*valid)
    frames_a = list(map(attrgetter("key_frames"), side_a))
    frames_b = list(map(attrgetter("key_frames"), side_b))

    keyframes = {}
    for fld in KEYFRAME_FIELDS:
        get = attrgetter(fld)
        xs, ys = list(map(get, frames_a)), list(map(get, frames_b))
        _paired(xs, ys, 2, "ccc")
        _paired(xs, ys, 3, "icc")
        moments = _moments(xs, ys)  # one pass serves both CCC and ICC
        keyframes[fld] = {
            "ccc": _ccc(*moments),
            "icc_a1": _icc(len(xs), *moments),
            "mae": keyframe_mae(xs, ys),
        }

    kappas = {}
    for fld in CATEGORICAL_FIELDS:
        get = attrgetter(fld)
        kappas[fld] = cohens_kappa(list(map(get, side_a)), list(map(get, side_b)))

    return {"n_both_valid": len(valid), "keyframes": keyframes, "kappa": kappas}
