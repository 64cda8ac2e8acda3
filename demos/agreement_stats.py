"""Inter-annotator agreement between two annotation passes.

Builds two slightly different annotation sets for the same cases and
prints Lin's concordance, ICC(A,1) and MAE per key-frame field plus
Cohen's kappa for the categorical labels.

Run with:  python3 demos/agreement_stats.py
"""

import random

from streamguard import CaseAnnotation, KeyFrames
from streamguard.agreement import agreement_table

rng = random.Random(7)


def one_pass(case_id, base, jitter):
    pnr = base + 0.4 + jitter
    return CaseAnnotation(
        case_id=case_id, location="bedroom", danger_category="C2",
        severity=rng.choice(["L1", "L2"]), difficulty="D1",
        key_frames=KeyFrames(intent_onset=base, pnr=pnr,
                             intervention_deadline=pnr - 0.2,
                             impact=base + 1.0, action_end=base + 1.3),
        key_entities=("scissors",), duration=base + 2.0,
    )


set_a, set_b = {}, {}
for i in range(15):
    base = round(rng.uniform(1.0, 8.0), 1)
    set_a[f"case-{i}"] = one_pass(f"case-{i}", base, 0.0)
    set_b[f"case-{i}"] = one_pass(f"case-{i}", base, rng.choice([-0.03, 0.0, 0.03]))

table = agreement_table(set_a, set_b)
print(f"both-valid cases: {table['n_both_valid']}")
print(f"{'field':>24}  {'ccc':>8}  {'icc_a1':>8}  {'mae_s':>8}")
for field, stats in table["keyframes"].items():
    print(f"{field:>24}  {stats['ccc']:8.4f}  {stats['icc_a1']:8.4f}  {stats['mae']:8.4f}")
for field, kappa in table["kappa"].items():
    print(f"kappa[{field}] = {kappa:.4f}")
