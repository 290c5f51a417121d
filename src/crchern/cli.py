"""Command-line interface: named verification targets and a ring calculator.

Exit codes: 0 all checks passed; 1 a check or tolerance failed, or
standard output was closed before all output was written; 2 usage
errors, unknown targets, invalid parameters, schema violations, parse
errors, and a manifest that cannot be written to ``--out``.

Every run is deterministic given flags and seed (``--seed``, or the
``CRCHERN_SEED`` environment variable, default 0); pass
``--no-timestamp`` for byte-identical JSON manifests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chern.checks import (
    check_prop_1_3,
    check_prop_1_4,
    check_prop_4_1,
    check_thm_1_1,
    cpn_setup,
    fpp_times_cpn_setup,
    genus2_times_cpn_setup,
)
from .chern.report import CheckReport
from .chern.spherical import verify_spherical_on_circle_bundle
from .chern.tractor import tractor_determinant_check
from .cohomology.parser import ParseError, parse_element
from .cohomology.ring import RingError, RingPresentation
from .kahler.scenario import ScenarioError, parse_scenario, run_batch
from .presets import PresetError, preset_ring

KNOWN_TARGETS = (
    "thm-1-1",
    "thm-1-2",
    "thm-1-2-formal",
    "tractor",
    "prop-1-3",
    "prop-4-1",
    "prop-1-4",
    "bochner-products",
    "all",
)

DEFAULT_SEED = 0
CONTROL_FLOOR = 1e-2
BOCHNER_PAIRS = (
    ((1, Fraction(1)), (1, Fraction(-1))),
    ((1, Fraction(1)), (2, Fraction(-1))),
    ((2, Fraction(1)), (2, Fraction(-1))),
)
BOCHNER_CONTROL = ((1, Fraction(1)), (1, Fraction(1)))


class ParameterError(ValueError):
    """Invalid target parameters (exit code 2)."""


def _primes_through(limit: int) -> list[int]:
    out = []
    for p in range(2, limit + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


# -- target runners ----------------------------------------------------------


def _run_thm_1_1(args) -> list[CheckReport]:
    n = args.n if args.n is not None else 2
    if n < 2:
        raise ParameterError("thm-1-1 requires --n >= 2")
    return [check_thm_1_1(n)]


def _spherical_families(n_max: int) -> list[CheckReport]:
    reports = []
    for n in range(2, n_max + 1):
        rep = verify_spherical_on_circle_bundle(genus2_times_cpn_setup(n), n)
        reports.append(_relabel(rep, family="genus2-surface x cp", n=n))
    for n in range(2, n_max + 1):
        for d in range(1, 6):
            rep = verify_spherical_on_circle_bundle(cpn_setup(n, d), n)
            reports.append(_relabel(rep, family="cp", n=n, d=d))
    for n in range(4, n_max + 1):
        rep = verify_spherical_on_circle_bundle(fpp_times_cpn_setup(n), n)
        reports.append(_relabel(rep, family="fpp x cp", n=n))
    return reports


def _relabel(report: CheckReport, **extra) -> CheckReport:
    params = dict(report.params)
    params.update(extra)
    return CheckReport(
        check=report.check,
        params=params,
        status=report.status,
        assertions=report.assertions,
        witnesses=report.witnesses,
        residuals=report.residuals,
    )


def _run_thm_1_2(args) -> list[CheckReport]:
    n_max = args.n_max if args.n_max is not None else 6
    if args.n is not None:
        n_max = args.n
    if n_max < 2:
        raise ParameterError("thm-1-2 requires --n-max >= 2")
    return _spherical_families(n_max)


def _run_tractor(args) -> list[CheckReport]:
    seed = args.seed
    if args.n is not None:
        if args.n < 1:
            raise ParameterError("tractor requires --n >= 1")
        return [tractor_determinant_check(args.n, seed=seed)]
    n_max = args.n_max if args.n_max is not None else 6
    if n_max < 1:
        raise ParameterError("tractor requires --n-max >= 1")
    return [tractor_determinant_check(n, seed=seed) for n in range(1, n_max + 1)]


def _run_prop_1_3(args) -> list[CheckReport]:
    n = args.n if args.n is not None else 2
    d = args.d if args.d is not None else 5
    if n < 2 or d < 1:
        raise ParameterError("prop-1-3 requires --n >= 2 and --d >= 1")
    return [check_prop_1_3(n, d)]


def _run_prop_4_1(args) -> list[CheckReport]:
    n = args.n if args.n is not None else 4
    if n < 4:
        raise ParameterError("prop-4-1 requires --n >= 4")
    return [check_prop_4_1(n)]


def _run_prop_1_4(args) -> list[CheckReport]:
    m = args.m if args.m is not None else 2
    if m < 2:
        raise ParameterError("prop-1-4 requires --m >= 2")
    return [check_prop_1_4(m, even_case=False), check_prop_1_4(m, even_case=True)]


def _run_bochner(args) -> list[CheckReport]:
    samples = args.samples if args.samples is not None else 10
    if samples < 1:
        raise ParameterError("--samples must be >= 1")
    tolerances = {"s_max": args.tol} if args.tol is not None else None
    reports = []
    for pair in BOCHNER_PAIRS:
        reports.append(
            run_batch(list(pair), samples=samples, seed=args.seed, tolerances=tolerances)
        )
    reports.append(
        run_batch(
            list(BOCHNER_CONTROL),
            samples=samples,
            seed=args.seed,
            expect_flat=False,
            control_floor=CONTROL_FLOOR,
        )
    )
    return reports


def _run_all(args) -> list[CheckReport]:
    n_max = args.n_max if args.n_max is not None else 6
    if n_max < 2:
        raise ParameterError("all requires --n-max >= 2")
    reports = []
    for n in range(2, n_max + 1):
        reports.append(check_thm_1_1(n))
    reports.extend(_spherical_families(n_max))
    for n in range(1, n_max + 1):
        reports.append(tractor_determinant_check(n, seed=args.seed))
    for n in range(2, 5):
        for d in _primes_through(13):
            if d > n + 1:
                reports.append(check_prop_1_3(n, d))
    for n in range(4, min(6, n_max) + 1):
        reports.append(check_prop_4_1(n))
    for m in (2, 3, 4):
        reports.append(check_prop_1_4(m, even_case=False))
    for m in (2, 3):
        reports.append(check_prop_1_4(m, even_case=True))
    reports.extend(_run_bochner(args))
    return reports


_TARGET_RUNNERS = {
    "thm-1-1": _run_thm_1_1,
    "thm-1-2": _run_thm_1_2,
    "thm-1-2-formal": _run_tractor,
    "tractor": _run_tractor,
    "prop-1-3": _run_prop_1_3,
    "prop-4-1": _run_prop_4_1,
    "prop-1-4": _run_prop_1_4,
    "bochner-products": _run_bochner,
    "all": _run_all,
}


# -- manifests ---------------------------------------------------------------


def build_manifest(
    command: list[str],
    reports: list[CheckReport],
    seed: int,
    with_timestamp: bool,
) -> dict:
    reports = sorted(
        reports, key=lambda r: (r.check, json.dumps(r.params, sort_keys=True, default=str))
    )
    manifest = {
        "tool": "crchern",
        "version": __version__,
        "command": command,
        "seed": seed,
        "status": "pass" if all(r.passed for r in reports) else "fail",
        "reports": [r.to_json_dict() for r in reports],
    }
    if with_timestamp:
        manifest["timestamp"] = datetime.now(timezone.utc).isoformat()
    return manifest


def manifest_to_markdown(manifest: dict) -> str:
    lines = [
        f"# crchern {manifest['version']} -- {manifest['status'].upper()}",
        "",
        f"command: `{' '.join(manifest['command'])}`  ",
        f"seed: {manifest['seed']}",
    ]
    if "timestamp" in manifest:
        lines.append(f"timestamp: {manifest['timestamp']}")
    lines.append("")
    lines.append("| check | params | status |")
    lines.append("|---|---|---|")
    for rep in manifest["reports"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(rep["params"].items()))
        lines.append(f"| {rep['check']} | {params} | {rep['status']} |")
    lines.append("")
    for rep in manifest["reports"]:
        lines.append(_report_markdown(rep))
        lines.append("")
    return "\n".join(lines)


def _report_markdown(rep: dict) -> str:
    out = [f"## `{rep['check']}` -- {rep['status']}"]
    params = ", ".join(f"`{k}={v}`" for k, v in sorted(rep["params"].items()))
    if params:
        out.append(params)
    out.append("")
    out.append("| assertion | ok |")
    out.append("|---|---|")
    for a in rep["assertions"]:
        out.append(f"| {a['name']} | {'yes' if a['ok'] else 'NO'} |")
    if rep.get("residuals"):
        out.append("")
        out.append("residuals: " + json.dumps(rep["residuals"], default=str))
    return "\n".join(out)


def _emit(manifest: dict, fmt: str, out_path: str | None) -> int:
    """Write the manifest; return the exit code (2 if ``--out`` fails)."""
    if fmt == "json":
        text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    else:
        text = manifest_to_markdown(manifest) + "\n"
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            print(f"cannot write manifest: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if manifest["status"] == "pass" else 1


# -- subcommand entry points --------------------------------------------------


def _cmd_verify(args, argv: list[str]) -> int:
    if args.target not in KNOWN_TARGETS:
        print(
            f"unknown target {args.target!r}; known: {', '.join(KNOWN_TARGETS)}",
            file=sys.stderr,
        )
        return 2
    try:
        reports = _TARGET_RUNNERS[args.target](args)
    except (ParameterError, RingError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    manifest = build_manifest(argv, reports, args.seed, not args.no_timestamp)
    return _emit(manifest, args.format, args.out)


def _cmd_bochner(args, argv: list[str]) -> int:
    try:
        reports = _run_bochner(args)
    except ParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    manifest = build_manifest(argv, reports, args.seed, not args.no_timestamp)
    return _emit(manifest, args.format, args.out)


def _load_ring_spec(spec: str) -> RingPresentation:
    text = spec.strip()
    if text.startswith("{"):
        return RingPresentation.from_json_dict(json.loads(text))
    path = Path(text)
    if path.suffix == ".json" or path.exists():
        return RingPresentation.from_json_dict(json.loads(path.read_text()))
    return preset_ring(text)


def _cmd_eval(args, argv: list[str]) -> int:
    try:
        ring = _load_ring_spec(args.ring)
    except (PresetError, RingError, json.JSONDecodeError, OSError) as exc:
        print(f"bad ring spec: {exc}", file=sys.stderr)
        return 2
    try:
        value = parse_element(args.expr, ring)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        lines = [str(value)] + [
            f"degree {k}: {value.homogeneous_part(k)}" for k in value.degrees()
        ]
    except ValueError as exc:  # a coefficient past int-to-str's digit limit
        print(f"result too large to print: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _cmd_scenario(args, argv: list[str]) -> int:
    try:
        doc = json.loads(Path(args.path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        factors, samples, seed, tolerances = parse_scenario(doc)
    except ScenarioError as exc:
        print(f"scenario schema violation: {exc}", file=sys.stderr)
        return 2
    if args.seed_flag is not None:
        seed = args.seed_flag
    report = run_batch(factors, samples=samples, seed=seed, tolerances=tolerances)
    manifest = build_manifest(argv, [report], seed, not args.no_timestamp)
    return _emit(manifest, args.format, args.out)


# -- argument parsing ---------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def _seed_default() -> int:
    env = os.environ.get("CRCHERN_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULT_SEED


def _tolerance(text: str) -> float:
    """``--tol`` values: finite and positive, or a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crchern",
        description="Exact verification of Chern-class constraints for "
        "spherical CR structures on circle bundles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification target")
    p_verify.add_argument("target", help=f"one of: {', '.join(KNOWN_TARGETS)}")
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--d", type=int, default=None)
    p_verify.add_argument("--m", type=int, default=None)
    p_verify.add_argument("--n-max", type=int, default=None, dest="n_max")
    p_verify.add_argument("--samples", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=_seed_default())
    p_verify.add_argument("--tol", type=_tolerance, default=None)
    _add_output_flags(p_verify)

    p_bochner = sub.add_parser(
        "bochner", help="curvature checks on the standard factor pairs"
    )
    p_bochner.add_argument("--samples", type=int, default=None)
    p_bochner.add_argument("--seed", type=int, default=_seed_default())
    p_bochner.add_argument("--tol", type=_tolerance, default=None)
    _add_output_flags(p_bochner)

    p_eval = sub.add_parser("eval", help="evaluate an expression in a ring")
    p_eval.add_argument(
        "--ring",
        required=True,
        help="preset string (e.g. fpp*cp:2), JSON document, or path to one",
    )
    p_eval.add_argument("expr")

    p_scn = sub.add_parser("scenario", help="run a JSON scenario file")
    p_scn.add_argument("path")
    p_scn.add_argument("--seed", type=int, default=None, dest="seed_flag")
    _add_output_flags(p_scn)

    return parser


_COMMANDS = {
    "verify": _cmd_verify,
    "bochner": _cmd_bochner,
    "eval": _cmd_eval,
    "scenario": _cmd_scenario,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            code = _COMMANDS[args.command](args, argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``crchern ... | head``).  As in
        # the ``signal`` module documentation: point stdout at devnull so
        # the interpreter's final flush cannot fail again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
