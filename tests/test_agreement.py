"""Agreement statistics against an independently coded direct-formula
oracle, plus degenerate-input behaviour and the summary table."""

import math
import random

import pytest

from streamguard.agreement import (
    DegenerateVariance,
    EmptyInput,
    KEYFRAME_FIELDS,
    LengthMismatch,
    agreement_table,
    cohens_kappa,
    icc_a1,
    keyframe_mae,
    lins_ccc,
)
from streamguard.model import KeyFrames

from helpers import ann_set, make_ann


# --- oracle implementations (pure python, no numpy) --------------------------

def oracle_kappa(a, b):
    n = len(a)
    p_o = sum(x == y for x, y in zip(a, b)) / n
    labels = sorted(set(a) | set(b), key=str)
    p_e = 0.0
    for lab in labels:
        p_e += (sum(x == lab for x in a) / n) * (sum(y == lab for y in b) / n)
    if p_e >= 1.0 - 1e-12:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def oracle_ccc(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((v - mx) ** 2 for v in x) / n
    vy = sum((v - my) ** 2 for v in y) / n
    cov = sum((p - mx) * (q - my) for p, q in zip(x, y)) / n
    denom = vx + vy + (mx - my) ** 2
    return 1.0 if denom == 0 else 2.0 * cov / denom


def oracle_icc_a1(x, y):
    n = len(x)
    k = 2
    grand = (sum(x) + sum(y)) / (n * k)
    row_means = [(p + q) / 2 for p, q in zip(x, y)]
    col_means = [sum(x) / n, sum(y) / n]
    ms_rows = k * sum((m - grand) ** 2 for m in row_means) / (n - 1)
    ms_cols = n * sum((m - grand) ** 2 for m in col_means) / (k - 1)
    ss_total = sum((v - grand) ** 2 for v in list(x) + list(y))
    ss_err = ss_total - k * sum((m - grand) ** 2 for m in row_means) \
        - n * sum((m - grand) ** 2 for m in col_means)
    ms_err = ss_err / ((n - 1) * (k - 1))
    denom = ms_rows + (k - 1) * ms_err + (k / n) * (ms_cols - ms_err)
    return (ms_rows - ms_err) / denom


def oracle_mae(x, y):
    return sum(abs(p - q) for p, q in zip(x, y)) / len(x)


# --- oracle comparison on random pairs ---------------------------------------

def test_continuous_stats_match_oracle():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randrange(3, 40)
        x = [round(rng.uniform(0, 30), 3) for _ in range(n)]
        y = [round(v + rng.gauss(0, 0.4), 3) for v in x]
        assert lins_ccc(x, y) == pytest.approx(oracle_ccc(x, y), abs=1e-9)
        assert icc_a1(x, y) == pytest.approx(oracle_icc_a1(x, y), abs=1e-9)
        assert keyframe_mae(x, y) == pytest.approx(oracle_mae(x, y), abs=1e-9)


def test_kappa_matches_oracle():
    rng = random.Random(43)
    labels = ["C1", "C2", "C3", "C4"]
    for _ in range(100):
        n = rng.randrange(2, 60)
        a = [rng.choice(labels) for _ in range(n)]
        b = [ai if rng.random() < 0.7 else rng.choice(labels) for ai in a]
        assert cohens_kappa(a, b) == pytest.approx(oracle_kappa(a, b), abs=1e-9)


# --- fixed values and degenerate cases ---------------------------------------

def test_identical_inputs_are_perfect():
    x = [1.0, 2.5, 4.0, 7.25]
    assert lins_ccc(x, x) == pytest.approx(1.0)
    assert icc_a1(x, x) == pytest.approx(1.0)
    assert keyframe_mae(x, x) == 0.0
    assert cohens_kappa(["a", "b", "a"], ["a", "b", "a"]) == pytest.approx(1.0)


def test_constant_identical_series():
    x = [2.0, 2.0, 2.0]
    assert lins_ccc(x, x) == 1.0
    assert icc_a1(x, x) == 1.0


def test_kappa_single_shared_label():
    # chance agreement is total; defined as perfect rather than 0/0
    assert cohens_kappa(["a", "a"], ["a", "a"]) == 1.0


def test_kappa_worked_example():
    a = ["y", "y", "y", "n", "n", "y", "n", "n", "y", "y"]
    b = ["y", "n", "y", "n", "n", "y", "y", "n", "y", "y"]
    # p_o = 0.8; p_a(y)=0.6, p_b(y)=0.6 -> p_e = 0.52
    assert cohens_kappa(a, b) == pytest.approx((0.8 - 0.52) / 0.48)


def test_kappa_bits_do_not_depend_on_label_order():
    """A one-to-one renaming of the labels changes the order in which their
    set is walked, which for str labels depends on the hash seed; kappa keeps
    every bit.  Small int labels hash to themselves, so here each renaming
    walks the same counts in another fixed order."""
    rng = random.Random(5)
    for _ in range(100):
        labels = list(range(12))
        a = [rng.choice(labels) for _ in range(40)]
        b = [x if rng.random() < 0.7 else rng.choice(labels) for x in a]
        rename = rng.sample(labels, len(labels))
        assert cohens_kappa([rename[x] for x in a], [rename[x] for x in b]) == cohens_kappa(a, b)


def test_ccc_penalizes_location_shift():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [v + 1.0 for v in x]  # perfectly correlated but biased
    assert 0 < lins_ccc(x, y) < 1
    assert lins_ccc(x, y) == pytest.approx(oracle_ccc(x, y), abs=1e-12)


def test_input_validation():
    with pytest.raises(LengthMismatch):
        lins_ccc([1.0, 2.0], [1.0])
    with pytest.raises(EmptyInput):
        cohens_kappa([], [])
    with pytest.raises(EmptyInput):
        lins_ccc([1.0], [1.0])
    with pytest.raises(EmptyInput):
        icc_a1([1.0, 2.0], [1.0, 2.0])  # needs at least three pairs
    with pytest.raises(EmptyInput):
        keyframe_mae([], [])


# --- the summary table -------------------------------------------------------

def two_annotation_sets(n=12, seed=17):
    rng = random.Random(seed)
    set_a, set_b = [], []
    for i in range(n):
        base = round(rng.uniform(1.0, 6.0), 2)
        pnr_a = base + 0.4
        pnr_b = pnr_a + rng.choice([-0.02, 0.0, 0.02])
        cat_a = rng.choice(["C1", "C2", "C3", "C4"])
        cat_b = cat_a if rng.random() < 0.8 else rng.choice(["C1", "C2", "C3", "C4"])
        shared = dict(impact=base + 1.0, end=base + 1.4, duration=base + 2.0)
        set_a.append(make_ann(case_id=f"c{i}", intent=base, pnr=pnr_a,
                              deadline=pnr_a - 0.2, category=cat_a, **shared))
        set_b.append(make_ann(case_id=f"c{i}", intent=base, pnr=pnr_b,
                              deadline=pnr_b - 0.2, category=cat_b, **shared))
    return ann_set(*set_a), ann_set(*set_b)


def test_agreement_table_shape_and_values():
    set_a, set_b = two_annotation_sets()
    table = agreement_table(set_a, set_b)
    assert table["n_both_valid"] == 12
    assert set(table["keyframes"]) == set(KEYFRAME_FIELDS)
    for stats in table["keyframes"].values():
        assert set(stats) == {"ccc", "icc_a1", "mae"}
    assert set(table["kappa"]) == {"danger_category", "severity", "difficulty"}
    # spot-check one row against the oracle
    xs = [set_a[f"c{i}"].key_frames.pnr for i in range(12)]
    ys = [set_b[f"c{i}"].key_frames.pnr for i in range(12)]
    assert table["keyframes"]["pnr"]["mae"] == pytest.approx(oracle_mae(xs, ys))
    assert table["keyframes"]["pnr"]["ccc"] == pytest.approx(oracle_ccc(xs, ys))


def test_agreement_table_does_not_depend_on_case_order():
    """Set A is walked in its own order, and every statistic keeps its bits."""
    set_a, set_b = two_annotation_sets(n=40)
    ids = list(set_a)
    random.Random(3).shuffle(ids)
    assert agreement_table({c: set_a[c] for c in ids}, set_b) == agreement_table(set_a, set_b)


def test_agreement_table_filters_invalid_cases():
    set_a, set_b = two_annotation_sets()
    set_b["c0"] = make_ann(case_id="c0", is_valid=False)
    table = agreement_table(set_a, set_b)
    assert table["n_both_valid"] == 11


def test_agreement_table_no_shared_valid_cases():
    set_a = ann_set(make_ann(case_id="a"))
    set_b = ann_set(make_ann(case_id="b"))
    with pytest.raises(EmptyInput):
        agreement_table(set_a, set_b)
