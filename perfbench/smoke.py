"""Smoke test of the benchmark on tiny inputs.

    python3 perfbench/smoke.py

Checks that ``BENCHMARK.json`` is well formed, that every workload in
both trace modes prints each metric it names, with its unit, and reports
no failed operation, and that the benchmark refuses to run in a
directory holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_manifest(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}, sorted(bench)
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def check_run(workload: str, trace: int, bench: dict) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.5",
                           "--trace", str(trace), "--size", "tiny"])
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m
    printed = {line.split()[0]: line.split() for line in lines[1:-1]}
    assert printed["failed_frac"][1:] == ["0.000000", "ratio"], printed["failed_frac"]
    for name, unit in run.END_TO_END.items() if not trace else ():
        assert printed[name][2] == unit and float(printed[name][1]) > 0, printed[name]
    for name, (unit, where) in run.STAGES.items():
        if workload in where:
            assert printed[name][2] == unit and float(printed[name][1]) > 0, printed[name]
    print(f"ok {workload} trace={trace}")


def check_refuses_without_sources() -> None:
    bare = run.HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and "correct" not in proc.stdout, proc
    print("ok refuses to run without sources")


def main() -> None:
    run.import_program()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check_manifest(bench)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, bench)
    check_refuses_without_sources()


if __name__ == "__main__":
    main()
