"""Metric definitions, cross-metric identities, error taxonomy, severity
confusion, and reconstruction of the published aggregate rows."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from streamguard.metrics import (
    EmptyDataset,
    ErrorType,
    MetricsError,
    MissingAnnotation,
    SeverityConfusion,
    build_report,
    classify_error,
    mentioned_entities,
    severity_confusion,
)
from streamguard.model import Phase, PhaseScoreTable, PredictionRecord

from helpers import ann_set, compute_ewp, compute_hdr, compute_pda, compute_wss, invert_row, \
    make_ann, phase_counts


def hz(case_id, t, **kw):
    return PredictionRecord(case_id=case_id, verdict="hazard", timestamp=t, **kw)


def safe(case_id, **kw):
    return PredictionRecord(case_id=case_id, verdict="safe", **kw)


# --- basic metric definitions ------------------------------------------------

def test_hdr_counts_parsed_hazards_only():
    preds = [hz("a", 1.0), safe("b"),
             hz("c", 1.0, parse_status="format_error")]
    assert compute_hdr(preds, 4) == pytest.approx(0.25)
    assert compute_hdr(preds, 2) == pytest.approx(0.5)
    with pytest.raises(EmptyDataset):
        compute_hdr(preds, 0)
    with pytest.raises(MetricsError):
        compute_hdr([hz("a", 1.0), hz("a", 2.0)], 2)


def test_ewp_window_is_intent_to_impact():
    anns = ann_set(make_ann(case_id="a"), make_ann(case_id="b"),
                   make_ann(case_id="c"), make_ann(case_id="d"))
    preds = [hz("a", 3.6), hz("b", 4.5), hz("c", 3.5), hz("d", 4.6)]
    assert compute_ewp(preds, anns) == pytest.approx(0.5)  # both edges inclusive
    assert compute_ewp([safe("a")], anns) is None  # undefined without hazards
    with pytest.raises(MissingAnnotation):
        compute_ewp([hz("zz", 1.0)], anns)


def test_missing_annotation_names_the_first_unannotated_record():
    anns = ann_set(make_ann(case_id="a"), make_ann(case_id="b"))
    preds = [safe("a"), safe("zz"), safe("b"), safe("yy")]
    for score in (severity_confusion, build_report):
        with pytest.raises(MissingAnnotation) as info:
            score(preds, anns)
        assert info.value.case_id == "zz"


def test_ewp_rejects_duplicate_records():
    anns = ann_set(make_ann(case_id="a"))
    with pytest.raises(MetricsError):
        compute_ewp([hz("a", 3.7), hz("a", 4.6)], anns)
    with pytest.raises(EmptyDataset):
        compute_ewp([], ann_set())


def test_phase_counts_and_pda():
    anns = ann_set(*[make_ann(case_id=f"c{i}") for i in range(6)])
    preds = [hz("c0", 2.0), hz("c1", 3.7), hz("c2", 3.9), hz("c3", 4.2),
             hz("c4", 4.8)]  # c5 has no record at all
    counts = phase_counts(preds, anns)
    assert counts == {Phase.PREMATURE: 1, Phase.OPTIMAL: 1, Phase.SUBOPTIMAL: 1,
                      Phase.IRREVERSIBLE: 1, Phase.MISSED: 2}
    pda = compute_pda(preds, anns)
    assert sum(pda.values()) == pytest.approx(1.0)
    assert pda[Phase.MISSED] == pytest.approx(2 / 6)


def test_format_error_counts_as_missed():
    anns = ann_set(make_ann(case_id="a"))
    pred = hz("a", 3.7, parse_status="format_error")
    assert phase_counts([pred], anns)[Phase.MISSED] == 1


def test_wss_weighted_mean():
    anns = ann_set(*[make_ann(case_id=f"c{i}") for i in range(4)])
    preds = [hz("c0", 3.7), hz("c1", 3.9), hz("c2", 4.2)]  # c3 missed
    assert compute_wss(preds, anns) == pytest.approx((100 + 50 + 25 + 0) / 4)
    custom = PhaseScoreTable({Phase.PREMATURE: 10.0, Phase.OPTIMAL: 90.0,
                              Phase.SUBOPTIMAL: 40.0, Phase.IRREVERSIBLE: 20.0,
                              Phase.MISSED: 5.0})
    assert compute_wss(preds, anns, custom) == pytest.approx((90 + 40 + 20 + 5) / 4)


def test_alert_just_past_impact_is_missed():
    """The key frames' ordering tolerance lets pnr and the deadline lie just
    past impact.  An alert in that gap is after impact: Missed, outside
    EWP's window, so EWP times the hazard count is still Opt + Sub + Irr."""
    ann = make_ann(case_id="a", intent=1.0, deadline=1.5 + 5e-10, pnr=1.7 + 5e-10,
                   impact=1.7, end=2.0, duration=5.0)
    pred = hz("a", 1.7 + 3e-10)
    report = build_report([pred], ann_set(ann))
    assert report.ewp == 0.0
    assert report.phase_fractions[Phase.MISSED] == 1.0
    assert report.case_errors == {"a": ErrorType.RESPONSE_LAG}
    assert report.row()["err_response_lag"] == 1.0


# --- published-row reconstruction --------------------------------------------

ROWS = [
    # hdr, ewp, premature, optimal, suboptimal, irreversible, missed, wss
    ("frontier_a", 75.11, 43.77, 37.90, 13.93, 9.82, 9.13, 29.22, 21.12),
    ("frontier_b", 93.61, 25.12, 66.89, 14.84, 5.48, 3.20, 9.59, 18.38),
    ("dual_brain", 86.53, 49.34, 24.89, 15.07, 11.87, 15.75, 32.19, 24.94),
]


@pytest.mark.parametrize("row", ROWS, ids=[r[0] for r in ROWS])
def test_published_row_reconstruction(row):
    _, hdr, ewp, pre, opt, sub, irr, missed, wss = row
    preds, anns = invert_row(hdr, pre, opt, sub, irr)
    assert len(anns) == 438
    report = build_report(preds, anns)
    assert report.hdr == pytest.approx(hdr / 100, abs=0.005)
    assert report.ewp == pytest.approx(ewp / 100, abs=0.005)
    assert report.phase_fractions[Phase.PREMATURE] == pytest.approx(pre / 100, abs=0.005)
    assert report.phase_fractions[Phase.OPTIMAL] == pytest.approx(opt / 100, abs=0.005)
    assert report.phase_fractions[Phase.SUBOPTIMAL] == pytest.approx(sub / 100, abs=0.005)
    assert report.phase_fractions[Phase.IRREVERSIBLE] == pytest.approx(irr / 100, abs=0.005)
    assert report.phase_fractions[Phase.MISSED] == pytest.approx(missed / 100, abs=0.005)
    assert report.wss == pytest.approx(wss, abs=0.05)


# --- randomized cross-metric identities --------------------------------------

def random_dataset(rng, n_min=1, n_max=40):
    n = rng.randrange(n_min, n_max)
    anns = []
    preds = []
    for i in range(n):
        cid = f"c{i}"
        anns.append(make_ann(case_id=cid))
        kind = rng.random()
        if kind < 0.25:
            pass  # no record
        elif kind < 0.45:
            preds.append(safe(cid))
        elif kind < 0.55:
            preds.append(hz(cid, rng.uniform(0, 6), parse_status="format_error"))
        else:
            preds.append(hz(cid, round(rng.uniform(0, 6), 3)))
    return preds, ann_set(*anns)


def test_identities_hold_on_random_datasets():
    rng = random.Random(99)
    table = PhaseScoreTable.default()
    for _ in range(300):
        preds, anns = random_dataset(rng)
        counts = phase_counts(preds, anns)
        pda = compute_pda(preds, anns)
        hdr = compute_hdr(preds, len(anns))
        ewp = compute_ewp(preds, anns)
        wss = compute_wss(preds, anns)
        n_hazard = sum(1 for p in preds if p.is_hazard)

        # fractions sum to one
        assert sum(pda.values()) == pytest.approx(1.0)
        # alerts inside the warning window are exactly Opt+Sub+Irr
        in_window = counts[Phase.OPTIMAL] + counts[Phase.SUBOPTIMAL] + counts[Phase.IRREVERSIBLE]
        if n_hazard:
            assert in_window == round(ewp * n_hazard)
        else:
            assert ewp is None and in_window == 0
        # missed = undetected cases + after-impact alerts
        after_impact = sum(
            1 for p in preds
            if p.is_hazard and p.timestamp > anns[p.case_id].key_frames.impact)
        assert counts[Phase.MISSED] == (len(anns) - n_hazard) + after_impact
        # the weighted score is the fraction-weighted sum
        assert wss == pytest.approx(sum(table[ph] * pda[ph] for ph in Phase))
        # hdr recount
        assert hdr == pytest.approx(n_hazard / len(anns))


# --- error taxonomy ----------------------------------------------------------

def test_classify_error_precedence():
    ann_vis = make_ann(difficulty="D1", entities=("kettle",))
    ann_intent = make_ann(difficulty="D3", entities=("kettle",))

    # format errors outrank everything, even a premature-looking timestamp
    assert classify_error(hz("c", 1.0, parse_status="format_error"),
                          ann_vis) == ErrorType.FORMAT_ERROR
    # hazard timing errors
    assert classify_error(hz("c", 1.0), ann_vis) == ErrorType.OVER_REACTION
    assert classify_error(hz("c", 4.2), ann_vis) == ErrorType.RESPONSE_LAG
    assert classify_error(hz("c", 5.9), ann_vis) == ErrorType.RESPONSE_LAG
    assert classify_error(hz("c", 3.7), ann_vis) == ErrorType.NO_ERROR
    assert classify_error(hz("c", 4.0), ann_vis) == ErrorType.NO_ERROR
    # safe verdict on a visible hazard: entity never mentioned -> not seen
    assert classify_error(safe("c", reasoning_text="the room is tidy"),
                          ann_vis) == ErrorType.VISUAL_OMISSION
    assert classify_error(safe("c", reasoning_text="a kettle sits on the stove"),
                          ann_vis) == ErrorType.NO_ERROR
    # safe verdict on an intent-dependent hazard: seen but not understood
    assert classify_error(safe("c", reasoning_text="the kettle looks fine"),
                          ann_intent) == ErrorType.REASONING_DEFICIT
    assert classify_error(safe("c", reasoning_text="nothing of note"),
                          ann_intent) == ErrorType.NO_ERROR
    # an absent record behaves like a bare safe verdict
    assert classify_error(None, ann_vis) == ErrorType.VISUAL_OMISSION


def test_mentioned_entities_word_boundaries():
    assert mentioned_entities("The Kettle is boiling", ["kettle"]) == ["kettle"]
    assert mentioned_entities("kettlebell workout", ["kettle"]) == []
    assert mentioned_entities("near the power strip.", ["power strip"]) == ["power strip"]
    assert mentioned_entities("", ["kettle"]) == []
    assert mentioned_entities("knife & kettle", ["kettle", "knife", "cup"]) == \
        ["kettle", "knife"]


def _reference_mentioned_entities(text, entities):
    """``mentioned_entities`` as it was before its pattern cache: the
    reference it must agree with."""
    lowered = text.lower()
    hits = []
    for entity in entities:
        pattern = r"\b" + re.escape(entity) + r"\b"
        if re.search(pattern, lowered):
            hits.append(entity)
    return hits


# Regex metacharacters, multiword and non-ASCII entities, and one that is empty.
_ENTITIES = ["kettle", "power strip", "c++", "a.b", "(pot)", "x*y", "[ladder]", "$5 bill",
             "back\\slash", "a|b", "café", "ñandú", "straße", "ı", "Knife", ""]
_TEXT_PARTS = _ENTITIES + [" ", ".", ",", "\n", "-", "_", "é", "KETTLE", "Power Strip", "CAFÉ",
                           "kettlebell", "STRASSE", "İ", "5", "a", "b"]


@settings(max_examples=400)
@given(st.one_of(st.just(""), st.text(max_size=12),
                 st.lists(st.sampled_from(_TEXT_PARTS), max_size=8).map("".join)),
       st.lists(st.sampled_from(_ENTITIES), max_size=4))
def test_mentioned_entities_matches_reference(text, entities):
    assert mentioned_entities(text, entities) == _reference_mentioned_entities(text, entities)


def test_error_rates_sum_to_one():
    rng = random.Random(5)
    preds, anns = random_dataset(rng, n_min=10)
    rates = build_report(preds, anns).error_fractions
    assert sum(rates.values()) == pytest.approx(1.0)
    assert set(rates) == set(ErrorType)


# --- severity confusion ------------------------------------------------------

def test_severity_confusion_rates():
    anns = ann_set(make_ann(case_id="a", severity="L2"),
                   make_ann(case_id="b", severity="L2"),
                   make_ann(case_id="c", severity="L3"),
                   make_ann(case_id="d", severity="L1"))
    preds = [hz("a", 3.7, severity_claim="L2"),   # exact
             hz("b", 3.7, severity_claim="L4"),   # over
             safe("c", severity_claim="none"),    # under (claims no danger)
             hz("d", 3.7)]                        # no claim: excluded
    conf = severity_confusion(preds, anns)
    assert conf.n == 3
    assert conf.exact_rate == pytest.approx(1 / 3)
    assert conf.over_rate == pytest.approx(1 / 3)
    assert conf.under_rate == pytest.approx(1 / 3)
    assert conf.counts[("L2", "L2")] == 1
    assert conf.counts[("L4", "L2")] == 1
    assert conf.counts[("none", "L3")] == 1


def test_severity_confusion_empty():
    anns = ann_set(make_ann(case_id="a"))
    conf = severity_confusion([hz("a", 3.7)], anns)
    assert conf.n == 0 and conf.exact_rate == 0.0


# --- full report -------------------------------------------------------------

def test_build_report_row_shape():
    _, hdr, _, pre, opt, sub, irr, _, _ = ROWS[0]
    preds, anns = invert_row(hdr, pre, opt, sub, irr)
    row = build_report(preds, anns).row(model="demo")
    assert row["model"] == "demo"
    assert row["n_total"] == 438
    assert set(k for k in row if k.startswith("p_")) == {
        "p_premature", "p_optimal", "p_suboptimal", "p_irreversible", "p_missed"}
    assert "err_over_reaction" in row


def test_build_report_empty_annotations():
    with pytest.raises(EmptyDataset):
        build_report([], ann_set())
