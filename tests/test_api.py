"""The package's public surface, pinned so that adding or removing public API
is a reviewed edit of these lists: the public names, each subcommand's
options, the coordinator's settings and the run-side entry points' parameters."""

import argparse
import dataclasses
import inspect
import subprocess
import sys
import types
from pathlib import Path

import streamguard
from streamguard import cli

PUBLIC_SURFACE = [
    "AlertSource",
    "AnnotationSet",
    "BinaryDecision",
    "CaseAnnotation",
    "CoordinatorConfig",
    "DecisionTrace",
    "EndpointConfig",
    "ErrorType",
    "Frame",
    "FrameManifest",
    "KeyFrames",
    "MetricsReport",
    "Phase",
    "PhaseScoreTable",
    "PredictionRecord",
    "PromptTemplate",
    "RemoteBackend",
    "SafetyState",
    "ScheduleRule",
    "ScriptedBackend",
    "WindowPlan",
    "agreement_table",
    "build_report",
    "build_windows",
    "classify_error",
    "classify_phase",
    "cohens_kappa",
    "icc_a1",
    "keyframe_mae",
    "lins_ccc",
    "load_annotations",
    "load_prompt",
    "run_baseline_case",
    "run_case",
    "severity_confusion",
]

CLI_OPTIONS = {
    "validate": ["--annotations"],
    "run": ["--actuation-lag", "--clock", "--fast", "--fps-high", "--fps-low", "--jobs", "--k",
            "--manifest", "--out", "--slow"],
    "eval-baseline": ["--backend", "--manifest", "--out", "--prompt"],
    "metrics": ["--annotations", "--model", "--out", "--preds", "--scores"],
    "errors": ["--annotations", "--out", "--preds"],
    "agreement": ["--a", "--b", "--out"],
    "ablate": ["--actuation-lag", "--annotations", "--clock", "--fast", "--fps", "--fps-high",
               "--fps-low", "--k", "--manifest", "--out", "--slow"],
}

COORDINATOR_FIELDS = ["window_size", "clock", "gamma_low", "gamma_high", "actuation_lag"]

# Each parameter, with its default where it has one.
SIGNATURES = {
    "run_case": ["manifest", "fast", "slow", "cfg"],
    "run_baseline_case": ["manifest", "backend", "with_severity=False"],
    "build_windows": ["duration"],
}


def test_public_surface():
    # Submodules become package attributes once anything imports them, so
    # they are left out: the result must not depend on test order.
    names = sorted(name for name, value in vars(streamguard).items()
                   if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_SURFACE


def test_cli_options():
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(opt for action in p._actions for opt in action.option_strings
                            if opt not in ("-h", "--help"))
               for name, p in sub.choices.items()}
    assert options == CLI_OPTIONS


def test_coordinator_config_fields():
    assert [f.name for f in dataclasses.fields(streamguard.CoordinatorConfig)] == \
        COORDINATOR_FIELDS


def test_entry_point_signatures():
    def params(fn):
        return [name if p.default is p.empty else f"{name}={p.default!r}"
                for name, p in inspect.signature(fn).parameters.items()]

    assert {name: params(getattr(streamguard, name)) for name in SIGNATURES} == SIGNATURES


def test_imports_with_the_standard_library_alone():
    """The package needs no third-party module: with site-packages (``-S``)
    and ``PYTHONPATH`` (``-E``) off the path, every layer still imports."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "import streamguard.cli, streamguard.ablation")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_http_stack_loads_only_with_a_remote_backend():
    """Importing every layer loads no HTTP, TLS or socket module; building a
    ``RemoteBackend`` does."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "import streamguard.cli, streamguard.ablation; "
            "from streamguard import EndpointConfig, RemoteBackend; "
            "stack = ('http.client', 'urllib.request', 'ssl', 'socket', 'email.parser', 'base64'); "
            "print(*[m for m in stack if m in sys.modules]); "
            "RemoteBackend(EndpointConfig(base_url='http://127.0.0.1:9', model_name='m')); "
            "print(*[m for m in ('urllib.request', 'http.client') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nurllib.request http.client\n"


def test_resource_loader_loads_only_with_a_prompt():
    """Importing every layer loads neither ``importlib.resources`` nor the
    archive and temporary-file modules it pulls in; loading a prompt does."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "import streamguard.cli, streamguard.ablation; "
            "from streamguard import load_prompt; "
            "mods = ('importlib.resources', 'tempfile', 'zipfile', 'bz2', 'lzma'); "
            "print(*[m for m in mods if m in sys.modules]); "
            "load_prompt('fast'); "
            "print('importlib.resources' in sys.modules)")
    proc = subprocess.run([sys.executable, "-E", "-S", "-c", code], capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parents[1], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\nTrue\n"
