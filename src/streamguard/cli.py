"""Operator command line: validation, coordinator runs, baseline
evaluation, metrics, error breakdowns, agreement, ablation sweeps.

Exit codes: 0 success, 1 domain error (validation/metric failures),
2 I/O or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

from . import ablation as ablation_mod
from .agreement import AgreementError, agreement_table
from .annotations import AnnotationSet, IoError, load_annotations
from .backends import (
    EndpointConfig,
    RemoteBackend,
    ScriptedBackend,
    load_prompt,
)
from .baseline import run_baseline_case
from .coordinator import CoordinatorConfig, run_case
from .metrics import ErrorType, MetricsError, build_report, case_errors
from .model import (
    DecisionTrace,
    FrameManifest,
    ModelError,
    Phase,
    PhaseScoreTable,
    PredictionRecord,
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
    except OSError as exc:
        raise CliError(EXIT_IO, f"io_error: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_IO, f"parse_error: {path}: {exc}")


def _load_manifests(path: str) -> list:
    raw = _load_json(path)
    entries = raw if isinstance(raw, list) else [raw]
    try:
        return [FrameManifest.from_dict(e) for e in entries]
    except ModelError as exc:
        raise CliError(EXIT_IO, f"manifest_error: {exc}")


def _make_backend(spec: str):
    if spec.startswith("scripted:"):
        try:
            return ScriptedBackend.from_file(spec[len("scripted:"):])
        except (OSError, json.JSONDecodeError, ModelError) as exc:
            raise CliError(EXIT_IO, f"backend_error: {exc}")
    if spec.startswith("remote:"):
        try:
            return RemoteBackend(EndpointConfig.from_file(spec[len("remote:"):]))
        except (OSError, json.JSONDecodeError, KeyError, ModelError) as exc:
            raise CliError(EXIT_IO, f"backend_error: {exc}")
    raise CliError(EXIT_IO, f"backend_error: unknown backend spec {spec!r} "
                            "(use scripted:<path> or remote:<path>)")


def _load_predictions(path: str) -> list:
    preds = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    preds.append(PredictionRecord.from_dict(json.loads(line)))
    except OSError as exc:
        raise CliError(EXIT_IO, f"io_error: {exc}")
    except (json.JSONDecodeError, ModelError, KeyError) as exc:
        raise CliError(EXIT_IO, f"parse_error: {path}: {exc}")
    return preds


def _load_annotation_set(path: str) -> AnnotationSet:
    try:
        return load_annotations(path)
    except IoError as exc:
        raise CliError(EXIT_IO, f"io_error: {exc}")
    except ModelError as exc:
        raise CliError(EXIT_DOMAIN, f"annotation_error: {exc}")


def _write_csv(path: str, fieldnames: list, rows: list) -> None:
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(rows)
    except OSError as exc:
        raise CliError(EXIT_IO, f"io_error: {exc}")


# --- subcommands -------------------------------------------------------------

def cmd_validate(args) -> int:
    try:
        anns = load_annotations(args.annotations)
    except IoError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ModelError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print(f"{len(anns)} cases OK")
    return EXIT_OK


def _coordinator_config(args) -> CoordinatorConfig:
    try:
        return CoordinatorConfig(
            window_size=args.k,
            clock=args.clock,
            gamma_low=args.fps_low,
            gamma_high=args.fps_high,
            actuation_lag=args.actuation_lag,
        )
    except ValueError as exc:
        raise CliError(EXIT_IO, f"config_error: {exc}")


def cmd_run(args) -> int:
    manifests = _load_manifests(args.manifest)
    fast = _make_backend(args.fast)
    slow = _make_backend(args.slow)
    cfg = _coordinator_config(args)

    def one(manifest):
        return run_case(manifest, fast, slow, cfg)

    if args.jobs > 1:
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            traces = list(pool.map(one, manifests))  # preserves case order
    else:
        traces = [one(m) for m in manifests]

    latencies = [t.end_to_end_latency for t in traces if t.end_to_end_latency is not None]
    alerts = sum(1 for t in traces if t.alert_stream_time is not None)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for trace in traces:
                fh.write(json.dumps(trace.to_dict()) + "\n")
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return EXIT_IO
    mean_latency = sum(latencies) / len(latencies) if latencies else float("nan")
    print(f"{len(traces)} cases, {alerts} alerts, mean end-to-end latency "
          f"{mean_latency:.3f}s")
    return EXIT_OK


def cmd_eval_baseline(args) -> int:
    manifests = _load_manifests(args.manifest)
    backend = _make_backend(args.backend)
    prompt = load_prompt("baseline_detect" if args.prompt == "detect" else "severity")
    with_severity = args.prompt == "severity"
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            for manifest in manifests:
                pred = run_baseline_case(manifest, backend, prompt=prompt,
                                         with_severity=with_severity)
                fh.write(json.dumps(pred.to_dict()) + "\n")
    except OSError as exc:
        print(f"io_error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{len(manifests)} cases evaluated -> {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    preds = _load_predictions(args.preds)
    anns = _load_annotation_set(args.annotations)
    scores = PhaseScoreTable.default()
    if args.scores:
        try:
            scores = PhaseScoreTable.from_dict(_load_json(args.scores))
        except ModelError as exc:
            raise CliError(EXIT_IO, f"config_error: {args.scores}: {exc}")
    try:
        report = build_report(preds, anns, scores=scores)
    except MetricsError as exc:
        print(f"metric_error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    row = report.row(model=args.model)
    _write_csv(args.out, list(row), [row])
    print("  ".join(f"{k}={_fmt(v)}" for k, v in row.items() if not k.startswith("err_")))
    return EXIT_OK


def _fmt(v) -> str:
    return f"{v:.4f}" if isinstance(v, float) else str(v)


def cmd_errors(args) -> int:
    preds = _load_predictions(args.preds)
    anns = _load_annotation_set(args.annotations)
    try:
        errors = case_errors(preds, anns)
    except MetricsError as exc:
        print(f"metric_error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    rows = [{"case_id": case_id, "error_type": err.value} for case_id, err in errors.items()]
    _write_csv(args.out, ["case_id", "error_type"], rows)
    counts = Counter(errors.values())
    print("  ".join(f"{e.value}={counts[e] / len(errors):.4f}" for e in ErrorType))
    return EXIT_OK


def cmd_agreement(args) -> int:
    set_a = _load_annotation_set(args.a)
    set_b = _load_annotation_set(args.b)
    try:
        table = agreement_table(set_a, set_b)
    except AgreementError as exc:
        print(f"agreement_error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    rows = [{"field": fld,
             "ccc": f"{stats['ccc']:.6f}",
             "icc_a1": f"{stats['icc_a1']:.6f}",
             "mae_s": f"{stats['mae']:.6f}"}
            for fld, stats in table["keyframes"].items()]
    _write_csv(args.out, ["field", "ccc", "icc_a1", "mae_s"], rows)
    kappa_bits = "  ".join(f"kappa[{f}]={v:.4f}" for f, v in table["kappa"].items())
    print(f"n_both_valid={table['n_both_valid']}  {kappa_bits}")
    return EXIT_OK


def cmd_ablate(args) -> int:
    manifests = _load_manifests(args.manifest)
    anns = _load_annotation_set(args.annotations)
    fast = _make_backend(args.fast)
    slow = _make_backend(args.slow)
    cfg = _coordinator_config(args)
    try:
        fps_list = [float(x) for x in args.fps.split(",") if x.strip()]
    except ValueError as exc:
        print(f"config_error: bad --fps list: {exc}", file=sys.stderr)
        return EXIT_IO
    cases = [ablation_mod.CasePair(manifest=m, fast=fast, slow=slow) for m in manifests]
    try:
        rows = ablation_mod.sweep_fps(cases, anns, fps_list, cfg)
    except (ValueError, MetricsError) as exc:
        print(f"sweep_error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    out_rows = []
    for row in rows:
        out_rows.append({
            "config": "dual_brain",
            "fps": row["fps"],
            "hdr": f"{row['hdr']:.4f}",
            "ewp": "" if row["ewp"] is None else f"{row['ewp']:.4f}",
            "wss": f"{row['wss']:.4f}",
            **{f"p_{p.value}": f"{row['phase_fractions'][p]:.4f}" for p in Phase},
            "mean_latency_s": "" if row["mean_latency"] is None else f"{row['mean_latency']:.4f}",
        })
    fieldnames = ["config", "fps", "hdr", "ewp", "wss"] + \
        [f"p_{p.value}" for p in Phase] + ["mean_latency_s"]
    _write_csv(args.out, fieldnames, out_rows)
    print(f"{len(out_rows)} sweep rows -> {args.out}")
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------

def _add_coordinator_flags(p) -> None:
    p.add_argument("--clock", choices=["sim", "real"], default="sim")
    p.add_argument("--k", type=int, default=3, help="slow-query window size")
    p.add_argument("--fps-low", type=float, default=1.0)
    p.add_argument("--fps-high", type=float, default=5.0)
    p.add_argument("--actuation-lag", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="streamguard")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an annotation file")
    p.add_argument("--annotations", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run the dual-brain coordinator over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fast", required=True, help="scripted:<path> | remote:<path>")
    p.add_argument("--slow", required=True, help="scripted:<path> | remote:<path>")
    _add_coordinator_flags(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval-baseline", help="sliding-window baseline evaluation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--backend", required=True)
    p.add_argument("--prompt", choices=["detect", "severity"], default="detect")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval_baseline)

    p = sub.add_parser("metrics", help="compute the summary metric row")
    p.add_argument("--preds", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--scores", default=None)
    p.add_argument("--model", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("errors", help="per-case error taxonomy")
    p.add_argument("--preds", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_errors)

    p = sub.add_parser("agreement", help="inter-annotator agreement statistics")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_agreement)

    p = sub.add_parser("ablate", help="sampling-rate sweep")
    p.add_argument("--manifest", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--fast", required=True)
    p.add_argument("--slow", required=True)
    p.add_argument("--fps", default="1,2,5,10")
    _add_coordinator_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
