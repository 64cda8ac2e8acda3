"""Sampling-rate sweeps."""

import pytest

from streamguard.ablation import sweep_fps
from streamguard.coordinator import CoordinatorConfig
from streamguard.metrics import EmptyDataset
from streamguard.model import Phase

from helpers import ann_set, fast_script, grid_manifest, make_ann, slow_script

CFG = CoordinatorConfig()


def burst_suite(n_cases=6):
    """Cases with a 0.4 s Yellow burst, then a short Red, then calm again.

    A 5 Hz alert lands at 1.4 s (optimal window [1.0, 1.5]); at 1 Hz the
    Red burst falls between samples and the case is missed entirely.
    Every case shares one backend pair.  Returns (manifests, fast, slow, anns).
    """
    fast = fast_script([(0.0, 0.9, "green"), (0.9, 1.35, "yellow"),
                        (1.35, 1.75, "red"), (1.75, 99.0, "green")])
    slow = slow_script([(0.0, 99.0, 0, 0.3)])
    manifests = []
    anns = []
    for i in range(n_cases):
        cid = f"burst-{i}"
        manifests.append(grid_manifest(case_id=cid, duration=5.0))
        anns.append(make_ann(case_id=cid, intent=1.0, deadline=1.5, pnr=1.7,
                             impact=2.0, end=2.5, duration=5.0))
    return manifests, fast, slow, ann_set(*anns)


def test_sweep_fps_burst_sensitivity():
    manifests, fast, slow, anns = burst_suite()
    rows = sweep_fps(manifests, fast, slow, anns, [1.0, 5.0], CFG)
    by_fps = {row["fps"]: row for row in rows}
    assert by_fps[5.0]["wss"] > by_fps[1.0]["wss"]
    assert by_fps[5.0]["hdr"] == pytest.approx(1.0)
    assert by_fps[1.0]["hdr"] == pytest.approx(0.0)
    assert by_fps[5.0]["phase_fractions"][Phase.OPTIMAL] == pytest.approx(1.0)
    assert by_fps[1.0]["phase_fractions"][Phase.MISSED] == pytest.approx(1.0)


def test_sweep_fps_row_order_matches_input():
    manifests, fast, slow, anns = burst_suite(2)
    rows = sweep_fps(manifests, fast, slow, anns, [5.0, 1.0, 2.0], CFG)
    assert [row["fps"] for row in rows] == [5.0, 1.0, 2.0]


def test_sweep_fps_validation():
    manifests, fast, slow, anns = burst_suite(1)
    with pytest.raises(ValueError):
        sweep_fps(manifests, fast, slow, anns, [], CFG)
    with pytest.raises(ValueError):
        sweep_fps(manifests, fast, slow, anns, [0.0], CFG)
    with pytest.raises(EmptyDataset):
        sweep_fps([], fast, slow, anns, [5.0], CFG)
