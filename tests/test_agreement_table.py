"""``agreement_table`` shares one set of moments between CCC and ICC(A,1);
its rows and its errors must be the per-statistic functions' own."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from streamguard.agreement import (
    KEYFRAME_FIELDS,
    EmptyInput,
    agreement_table,
    icc_a1,
    keyframe_mae,
    lins_ccc,
)

from helpers import ann_set, make_ann


def _annotations(rng, n, prefix="c"):
    """``n`` valid cases whose key frames are drawn from ``rng``."""
    anns = []
    for i in range(n):
        intent = round(rng.uniform(0.0, 20.0), rng.choice([1, 3, 6]))
        pnr = intent + round(rng.uniform(0.25, 3.0), 3)
        impact = pnr + round(rng.uniform(0.0, 2.0), 3)
        end = impact + round(rng.uniform(0.0, 1.0), 3)
        anns.append(make_ann(case_id=f"{prefix}{i}", intent=intent, deadline=pnr - 0.2, pnr=pnr,
                             impact=impact, end=end, duration=end + 1.0))
    return ann_set(*anns)


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 40), st.integers(0, 2**32 - 1))
def test_table_rows_are_the_per_statistic_values(n, seed):
    rng = random.Random(seed)
    set_a, set_b = _annotations(rng, n), _annotations(rng, n)
    keyframes = agreement_table(set_a, set_b)["keyframes"]
    assert list(keyframes) == list(KEYFRAME_FIELDS)
    ids = sorted(set_a)  # the table's case order
    for fld, stats in keyframes.items():
        xs = [getattr(set_a[cid].key_frames, fld) for cid in ids]
        ys = [getattr(set_b[cid].key_frames, fld) for cid in ids]
        assert stats == {"ccc": lins_ccc(xs, ys), "icc_a1": icc_a1(xs, ys),
                         "mae": keyframe_mae(xs, ys)}


@pytest.mark.parametrize("n,message", [(1, "ccc: need at least 2 pairs, got 1"),
                                       (2, "icc: need at least 3 pairs, got 2")])
def test_table_too_few_cases_is_the_first_statistic_error(n, message):
    rng = random.Random(n)
    with pytest.raises(EmptyInput, match=f"^{message}$"):
        agreement_table(_annotations(rng, n), _annotations(rng, n))
