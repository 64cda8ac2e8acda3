"""Operator command line: validation, coordinator runs, baseline
evaluation, metrics, error breakdowns, agreement, ablation sweeps.

Exit codes: 0 success, 1 domain error (validation/metric failures),
2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from . import ablation as ablation_mod
from .agreement import AgreementError, agreement_table
from .annotations import load_annotations
from .backends import EndpointConfig, RemoteBackend, ScriptedBackend
from .baseline import run_baseline_case
from .coordinator import CoordinatorConfig, run_case
from .metrics import ErrorType, MetricsError, build_report
from .model import (
    JSON_ERRORS,
    FrameManifest,
    ModelError,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
    _json_object,
    decode_json_array,
    gc_paused,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except JSON_ERRORS as exc:
        raise CliError(EXIT_IO, f"parse_error: {path}: {exc}")


def _load_manifests(path: str) -> list:
    """Decode a manifest file.  A repeated ``case_id`` is an error, as in an
    annotation file.  An array is decoded one manifest at a time
    (``model.decode_json_array``); a JSON error anywhere in the file, nesting
    too deep to decode included, wins over a manifest's error.  A value that
    is no JSON object names the file."""
    def decode(d) -> FrameManifest:
        return FrameManifest.from_dict(_json_object(path, "manifest", d))

    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        manifests = decode_json_array(text, decode)
        if manifests is None:  # one manifest, not in an array
            manifests = [decode(json.loads(text))]
    except JSON_ERRORS as exc:
        raise CliError(EXIT_IO, f"parse_error: {path}: {exc}")
    except ModelError as exc:
        raise CliError(EXIT_IO, f"manifest_error: {exc}")
    seen = set()
    for m in manifests:
        if m.case_id in seen:
            raise CliError(EXIT_IO, f"manifest_error: duplicate case_id {m.case_id!r} in {path}")
        seen.add(m.case_id)
    return manifests


def _make_backend(spec: str):
    kind, sep, path = spec.partition(":")
    if not sep or kind not in ("scripted", "remote"):
        raise CliError(EXIT_IO, f"backend_error: unknown backend spec {spec!r} "
                                "(use scripted:<path> or remote:<path>)")
    try:
        if kind == "scripted":
            return ScriptedBackend.from_file(path)
        return RemoteBackend(EndpointConfig.from_file(path))
    except (OSError, ModelError) as exc:
        raise CliError(EXIT_IO, f"backend_error: {exc}")
    except JSON_ERRORS as exc:
        raise CliError(EXIT_IO, f"backend_error: {path}: {exc}")


# ``json.loads`` without its whitespace scans: a stripped line has no JSON
# whitespace at either end.  A score_bulk benchmark pass takes 1.015 s with
# it and 1.060 s with ``json.loads`` for every line, lower in 10 of 10 pairs
# (``BENCH_fastpath_ledger.json``).
_raw_decode = json.JSONDecoder().raw_decode
# JSON's whitespace, the only kind a predictions line may have around its
# value: ``str.strip()`` would also drop a form feed or a no-break space,
# which ``json.loads`` refuses.
_JSON_WS = " \t\r\n"


def _load_predictions(path: str) -> list:
    """One record per line that is not blank, in one pass over the file.  Only
    JSON whitespace is stripped, so only a line of it is blank.  A line that
    ``_raw_decode`` does not take whole goes to ``json.loads``, so a bad line
    fails with its error.  The first error in the file, from a pipe too,
    reads ``line <n>: <error>``: bad JSON, nesting too deep, a bad record, or
    a bad UTF-8 byte, whose position counts from the start of its line.  A
    file with no record is an error too."""
    preds = []
    n = 0
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as fh:
            for n, line in enumerate(fh, 1):
                if not line.isascii():  # raise a bad byte's UTF-8 error
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                line = line.strip(_JSON_WS)
                if line:
                    try:
                        d, end = _raw_decode(line)
                    except json.JSONDecodeError:
                        end = -1
                    if end != len(line):
                        d = json.loads(line)
                    preds.append(PredictionRecord.from_dict(d))
    except (*JSON_ERRORS, ModelError) as exc:
        raise CliError(EXIT_IO, f"parse_error: {path}: line {n}: {exc}")
    if not preds:  # an empty file would score every case as missed
        raise CliError(EXIT_IO, f"parse_error: {path}: no prediction records")
    return preds


def _load_annotation_set(path: str, label: str = "annotation_error") -> dict:
    """The cases of an annotation file; a bad one is a domain error, ``<label>: ...``."""
    try:
        return load_annotations(path)
    except ModelError as exc:
        raise CliError(EXIT_DOMAIN, f"{label}: {exc}")


def _write_csv(path: str, header, rows) -> None:
    """Write the header row, then each row's values in header order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommands -------------------------------------------------------------
#
# The read-side commands (validate, metrics, errors, agreement) run with the
# cyclic collector paused until their records are freed.  The commands that
# call backends keep it on: a remote backend's urllib machinery and threads may
# build cyclic garbage, and a pause would keep it alive for the whole run.

@gc_paused()
def cmd_validate(args) -> int:
    anns = _load_annotation_set(args.annotations, "invalid")
    print(f"{len(anns)} cases OK")
    return EXIT_OK


def cmd_run(args) -> int:
    manifests = _load_manifests(args.manifest)
    fast = _make_backend(args.fast)
    slow = _make_backend(args.slow)
    try:
        cfg = CoordinatorConfig(clock=args.clock, gamma_high=args.fps_high)
    except ValueError as exc:
        raise CliError(EXIT_IO, f"config_error: {exc}")
    if args.jobs < 1:
        raise CliError(EXIT_IO, "config_error: --jobs must be at least 1")

    one = functools.partial(run_case, fast=fast, slow=slow, cfg=cfg)
    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            traces = list(pool.map(one, manifests))  # preserves case order
    else:
        traces = [one(m) for m in manifests]

    latencies = [t.end_to_end_latency for t in traces if t.end_to_end_latency is not None]
    alerts = sum(1 for t in traces if t.alert_stream_time is not None)
    with open(args.out, "w", encoding="utf-8") as fh:
        for trace in traces:
            fh.write(trace.to_json() + "\n")
    mean_latency = f"{sum(latencies) / len(latencies):.3f}s" if latencies else "n/a"
    print(f"{len(traces)} cases, {alerts} alerts, mean end-to-end latency {mean_latency}")
    return EXIT_OK


def cmd_eval_baseline(args) -> int:
    """Write one record per case, an aborted one too; then, if a case was
    aborted, fail with the first one's ``backend_error:``."""
    manifests = _load_manifests(args.manifest)
    backend = _make_backend(args.backend)
    first_abort = None
    with open(args.out, "w", encoding="utf-8") as fh:
        for manifest in manifests:
            pred = run_baseline_case(manifest, backend, with_severity=args.prompt == "severity")
            if pred.parse_status == "aborted" and first_abort is None:
                first_abort = pred
            fh.write(json.dumps(pred.to_dict()) + "\n")
    if first_abort is not None:
        raise CliError(EXIT_IO, f"backend_error: case {first_abort.case_id}: "
                                f"{first_abort.parse_detail}")
    print(f"{len(manifests)} cases evaluated -> {args.out}")
    return EXIT_OK


def _report(args, scores_path=None):
    """The report over ``--preds`` and ``--annotations``, loaded in that
    order, then the ``scores_path`` table if one is given."""
    preds = _load_predictions(args.preds)
    anns = _load_annotation_set(args.annotations)
    scores = None  # build_report's default table
    if scores_path:
        try:
            scores = PhaseScoreTable.from_dict(_load_json(scores_path))
        except ModelError as exc:
            raise CliError(EXIT_IO, f"config_error: {scores_path}: {exc}")
    try:
        return build_report(preds, anns, scores=scores)
    except MetricsError as exc:
        raise CliError(EXIT_DOMAIN, f"metric_error: {exc}")


@gc_paused()
def cmd_metrics(args) -> int:
    row = _report(args, args.scores).row(model=args.model)
    _write_csv(args.out, row, [row.values()])
    print("  ".join(f"{k}={_fmt(v)}" for k, v in row.items() if not k.startswith("err_")))
    return EXIT_OK


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)


@gc_paused()
def cmd_errors(args) -> int:
    report = _report(args)
    _write_csv(args.out, ("case_id", "error_type"),
               [(case_id, err.value) for case_id, err in report.case_errors.items()])
    print("  ".join(f"{e.value}={report.error_fractions[e]:.4f}" for e in ErrorType))
    return EXIT_OK


@gc_paused()
def cmd_agreement(args) -> int:
    set_a = _load_annotation_set(args.a)
    set_b = _load_annotation_set(args.b)
    try:
        table = agreement_table(set_a, set_b)
    except AgreementError as exc:
        raise CliError(EXIT_DOMAIN, f"agreement_error: {exc}")
    rows = [(fld, f"{stats['ccc']:.6f}", f"{stats['icc_a1']:.6f}", f"{stats['mae']:.6f}")
            for fld, stats in table["keyframes"].items()]
    _write_csv(args.out, ("field", "ccc", "icc_a1", "mae_s"), rows)
    kappa_bits = "  ".join(f"kappa[{f}]={v:.4f}" for f, v in table["kappa"].items())
    print(f"n_both_valid={table['n_both_valid']}  {kappa_bits}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    manifests = _load_manifests(args.manifest)
    anns = _load_annotation_set(args.annotations)
    fast = _make_backend(args.fast)
    slow = _make_backend(args.slow)
    try:
        fps_list = [float(x) for x in args.fps.split(",") if x.strip()]
        rows = ablation_mod.sweep_fps(manifests, fast, slow, anns, fps_list)
    except ValueError as exc:  # sweep_fps checks every rate before it runs a case
        raise CliError(EXIT_IO, f"config_error: bad --fps list: {exc}")
    except MetricsError as exc:
        raise CliError(EXIT_DOMAIN, f"sweep_error: {exc}")
    out_rows = [
        ("dual_brain", row["fps"], f"{row['hdr']:.4f}",
         "" if row["ewp"] is None else f"{row['ewp']:.4f}", f"{row['wss']:.4f}",
         *(f"{row['phase_fractions'][p]:.4f}" for p in Phase),
         "" if row["mean_latency"] is None else f"{row['mean_latency']:.4f}")
        for row in rows]
    header = ["config", "fps", "hdr", "ewp", "wss"] + \
        [f"p_{p.value}" for p in Phase] + ["mean_latency_s"]
    _write_csv(args.out, header, out_rows)
    print(f"{len(out_rows)} sweep rows -> {args.out}")
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamguard")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an annotation file")
    p.add_argument("--annotations", required=True)

    p = sub.add_parser("run", help="run the dual-brain coordinator over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fast", required=True, help="scripted:<path> | remote:<path>")
    p.add_argument("--slow", required=True, help="scripted:<path> | remote:<path>")
    p.add_argument("--clock", choices=["sim", "real"], default="sim")
    p.add_argument("--fps-high", type=float, default=5.0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval-baseline", help="sliding-window baseline evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--prompt", choices=["detect", "severity"], default="detect")
    p.add_argument("--out", required=True)

    p = sub.add_parser("metrics", help="compute the summary metric row")
    p.add_argument("--preds", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--scores", default=None)
    p.add_argument("--model", default="")
    p.add_argument("--out", required=True)

    p = sub.add_parser("errors", help="per-case error taxonomy")
    p.add_argument("--preds", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("agreement", help="inter-annotator agreement statistics")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", help="sampling-rate sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--fast", required=True)
    p.add_argument("--slow", required=True)
    p.add_argument("--fps", default="1,2,5,10")
    p.add_argument("--out", required=True)

    return parser


_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one subcommand.  One parser serves the process: built on the first
    call (1.45 ms and 345 cyclic objects on a 2.1 GHz Xeon, Python 3.11), it
    parses a command line in 0.08 ms, into a fresh namespace each time.  Each
    ``cmd_*`` function is looked up by name per call, so one replaced on the
    module later (perfbench's tracer wraps them) is the one that runs.

    This is the one place where an ``OSError`` becomes a message: a file
    that any command cannot open, read or write is ``io_error: <the
    error>``, exit 2.  ``_make_backend`` alone words its own, as a
    ``backend_error``."""
    args = _parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
