"""Command-line interface: named verification targets and a ring calculator.

This module reads the command line and picks the output sink; the
manifest is built and rendered by :mod:`crchern.chern.report`.

Every ``verify`` target is one entry of :data:`TARGETS`: the flags it
takes, each with its default and inclusive range, a runner, and the
target's share of ``verify all``.

Exit codes: 0 all checks passed; 1 a check or tolerance failed, or
standard output was closed before all output was written; 2 usage
errors, unknown targets, a flag the target does not take, ``--n``
together with ``--n-max``, a value outside its range, a scenario or
ring document larger than :data:`MAX_DOCUMENT_BYTES`, schema
violations, a scenario outside the numeric model's range (a point
outside a factor's chart, an ill-conditioned metric, or a curvature the
calibration refuses), parse errors and products or powers past the
parser's bounds, and a manifest that cannot be written to ``--out``.  Parameters are checked against the
table, and ``--out`` is opened, before any check runs.

Every run is deterministic given its flags and seed (``verify --seed``,
default 0, or a scenario document's ``seed``); pass ``--no-timestamp``
for byte-identical manifests.

Each input has one spelling, and any other is a usage error: one name
per command and per target; exact option names; integers in ASCII
digits (``ring.read_integer``), a seed with at most one leading ``-``;
a ``--tol`` that ``scenario.DECIMAL`` matches; a ``--ring`` spec told
apart by syntax (:func:`_load_ring_spec`).
A refusal quotes at most ``ring.QUOTE_LIMIT`` characters of its input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from functools import partial
from typing import Callable

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
from .chern.report import CheckReport, build_manifest, render_manifest
from .chern.spherical import verify_spherical_on_circle_bundle
from .chern.tractor import tractor_determinant_check
from .cohomology.parser import ParseError, parse_element
from .cohomology.ring import Record, RingPresentation, quote, read_integer
from .kahler.scenario import DECIMAL, MAX_SAMPLES, ScenarioError, parse_scenario, run_batch
from .kahler.spaceform import CalibrationError, PatchDomainError
from .kahler.tensors import IllConditionedMetric
from .presets import preset_ring

DEFAULT_SEED = 0
# The most bytes a scenario or ring document may hold; the largest
# legitimate one, a 64-generator presentation, is a few KB.
MAX_DOCUMENT_BYTES = 1 << 20
BOCHNER_PAIRS = (
    ((1, Fraction(1)), (1, Fraction(-1))),
    ((1, Fraction(1)), (2, Fraction(-1))),
    ((2, Fraction(1)), (2, Fraction(-1))),
)
BOCHNER_CONTROL = ((1, Fraction(1)), (1, Fraction(1)))


class ParameterError(ValueError):
    """Invalid target parameters (exit code 2)."""


def _refuse(message: str) -> int:
    """Report a refused invocation on one stderr line; the exit code is 2."""
    print(message, file=sys.stderr)
    return 2


def _reason(exc: Exception) -> str:
    """``str(exc)``, an ``OSError``'s file name cut by ``quote``."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {quote(exc.filename)}"
    return str(exc)


def _integer(text: str) -> int:
    """An integer flag: ``read_integer``, or a usage error (exit 2) that argparse
    prints as it is, not as ``invalid <type function> value: <whole input>``."""
    try:
        return read_integer(text)
    except ValueError:  # not ASCII digits, or past int()'s digit limit
        raise argparse.ArgumentTypeError(f"not an integer: {quote(text)}") from None


def _seed(text: str) -> int:
    """``--seed``: ``_integer`` after at most one leading ``-``."""
    return -_integer(text[1:]) if text.startswith("-") else _integer(text)


def _tolerance(text: str) -> float:
    """``--tol`` values: a finite and positive ``DECIMAL``, or a usage error (exit 2)."""
    value = float(text) if DECIMAL.fullmatch(text) else math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite and positive decimal, got {quote(text)}"
        )
    return value


# -- the target table --------------------------------------------------------


class Flag(Record):
    """A ``verify`` flag as one target takes it.

    ``default`` is used when the flag is not given (``None``: unset);
    ``low``/``high`` bound the value inclusively (``None``: no bound);
    ``parse`` is the argparse type.
    """

    __slots__ = ("default", "low", "high", "parse")

    def __init__(
        self,
        default: int | None = None,
        low: int | None = None,
        high: int | None = None,
        parse: Callable[[str], object] = _integer,
    ) -> None:
        object.__setattr__(self, "default", default)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "parse", parse)


class Target(Record):
    """One ``verify`` target.

    ``run`` maps the target's parameters (every flag of ``flags`` plus
    ``seed``) to its reports; ``share`` maps the parameters of ``all``
    to the reports this target adds to ``verify all``.  Both call the
    checks through this module's global names at call time, so that
    code which rebinds those names (tracing, tests) sees every call.
    """

    __slots__ = ("flags", "run", "share")

    def __init__(
        self,
        flags: dict[str, Flag],
        run: Callable[[dict], list[CheckReport]],
        share: Callable[[dict], list[CheckReport]] | None = None,
    ) -> None:
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "share", share)


def _ns(p: dict, first: int) -> range:
    """``first..n_max``; under ``--n`` (never in ``all``'s parameters) that n, if ``>= first``."""
    n = p.get("n")
    return range(first, p["n_max"] + 1) if n is None else range(max(first, n), n + 1)


def _spherical_families(p: dict) -> list[CheckReport]:
    reports = []
    for n in _ns(p, 2):
        rep = verify_spherical_on_circle_bundle(genus2_times_cpn_setup(n), n)
        reports.append(_relabel(rep, family="genus2-surface x cp", n=n))
    for n in _ns(p, 2):
        base = cpn_setup(n, 1)  # e = -t; one base and tangent bundle for every d
        for d in range(1, 6):
            setup = base.replace(euler=d * base.euler)
            rep = verify_spherical_on_circle_bundle(setup, n)
            reports.append(_relabel(rep, family="cp", n=n, d=d))
    for n in _ns(p, 4):
        rep = verify_spherical_on_circle_bundle(fpp_times_cpn_setup(n), n)
        reports.append(_relabel(rep, family="fpp x cp", n=n))
    return reports


def _relabel(report: CheckReport, **extra) -> CheckReport:
    return report.replace(params={**report.params, **extra})


def _tractor(p: dict) -> list[CheckReport]:
    return [tractor_determinant_check(n, seed=p["seed"]) for n in _ns(p, 1)]


def _bochner(p: dict) -> list[CheckReport]:
    batch = {"samples": p["samples"], "seed": p["seed"]}
    tolerances = {"s_max": p["tol"]} if p["tol"] is not None else None
    flat = [run_batch(list(pair), tolerances=tolerances, **batch) for pair in BOCHNER_PAIRS]
    control = run_batch(list(BOCHNER_CONTROL), expect_flat=False, **batch)
    return [*flat, control]


_SAMPLES = Flag(10, 1, MAX_SAMPLES)
_TOL = Flag(parse=_tolerance)  # unset: the batch's default s_max

TARGETS = {
    "thm-1-1": Target(
        {"n": Flag(2, 2, 1000)},
        run=lambda p: [check_thm_1_1(p["n"])],
        share=lambda p: [check_thm_1_1(n) for n in range(2, p["n_max"] + 1)],
    ),
    "thm-1-2": Target(
        {"n": Flag(None, 2, 40), "n_max": Flag(6, 2, 40)}, _spherical_families, _spherical_families
    ),
    "tractor": Target({"n": Flag(None, 1, 60), "n_max": Flag(6, 1, 40)}, _tractor, _tractor),
    "prop-1-3": Target(
        {"n": Flag(2, 2, 1000), "d": Flag(5, 1)},
        run=lambda p: [check_prop_1_3(p["n"], p["d"])],
        share=lambda p: [
            check_prop_1_3(n, d)
            for n in range(2, 5)
            for d in (2, 3, 5, 7, 11, 13)
            if d > n + 1
        ],
    ),
    "prop-4-1": Target(
        {"n": Flag(4, 4, 1000)},
        run=lambda p: [check_prop_4_1(p["n"])],
        share=lambda p: [check_prop_4_1(n) for n in range(4, min(6, p["n_max"]) + 1)],
    ),
    "prop-1-4": Target(
        {"m": Flag(2, 2, 12)},  # the nilsquare product has 2^m terms
        run=lambda p: [
            check_prop_1_4(p["m"], even_case=False),
            check_prop_1_4(p["m"], even_case=True),
        ],
        share=lambda p: [check_prop_1_4(m, even_case=False) for m in (2, 3, 4)]
        + [check_prop_1_4(m, even_case=True) for m in (2, 3)],
    ),
    "bochner-products": Target({"samples": _SAMPLES, "tol": _TOL}, _bochner, _bochner),
    "all": Target(
        {"n_max": Flag(6, 2, 40), "samples": _SAMPLES, "tol": _TOL},
        run=lambda p: [r for t in TARGETS.values() if t.share for r in t.share(p)],
    ),
}
FLAGS = {name: flag for t in TARGETS.values() for name, flag in t.flags.items()}


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


def _params(label: str, target: Target, args) -> dict:
    """The target's parameters from ``args``, defaults filled in.

    A flag the target does not take, ``--n`` together with ``--n-max``,
    or a value outside a flag's range, raises :class:`ParameterError`;
    nothing has run yet.
    """
    given = [name for name in FLAGS if getattr(args, name, None) is not None]
    foreign = [_option(name) for name in given if name not in target.flags]
    if foreign:
        raise ParameterError(f"{label} does not take {', '.join(foreign)}")
    if {"n", "n_max"} <= set(given):  # one n, or a range up to n_max
        raise ParameterError(f"{label} takes --n or --n-max, not both")
    params = {"seed": args.seed}
    for name, flag in target.flags.items():
        value = getattr(args, name, None)
        if value is None:
            value = flag.default
        elif flag.low is not None and not flag.low <= value <= (flag.high or math.inf):
            bound = f">= {flag.low}" if flag.high is None else f"in {flag.low}..{flag.high}"
            raise ParameterError(f"{label} requires {_option(name)} {bound}")
        params[name] = value
    return params


# -- output -----------------------------------------------------------------


def _emit(
    args, argv: list[str], seed: int, compute: Callable[[], list[CheckReport]]
) -> int:
    """Write the manifest of ``compute()``; return the exit code.

    ``--out`` is opened before ``compute`` runs and the manifest is
    written through that handle, so an unwritable path exits 2 before
    any work.  It is truncated only once the manifest exists, so a run
    that raises or is interrupted leaves an earlier file as it was, and
    removes a file that this call created.
    """
    created = False
    try:
        if args.out:
            try:
                sink, created = open(args.out, "x"), True
            except FileExistsError:
                sink = open(args.out, "a")
        else:
            sink = nullcontext(sys.stdout)
    except OSError as exc:
        return _refuse(f"cannot write manifest: {_reason(exc)}")
    written = False
    try:
        with sink as stream:
            manifest = build_manifest(argv, compute(), seed, not args.no_timestamp)
            if args.out and stream.seekable() and stream.tell():
                stream.truncate(0)  # an earlier file: replaced only now
            stream.write(render_manifest(manifest, args.format))
        written = True
    except BrokenPipeError:
        raise  # standard output closed by its reader: ``main`` exits 1
    except OSError as exc:
        return _refuse(f"cannot write manifest: {_reason(exc)}")
    finally:
        if created and not written:
            os.remove(args.out)
    return 0 if manifest["status"] == "pass" else 1


# -- subcommand entry points --------------------------------------------------


def _cmd_verify(args, argv: list[str]) -> int:
    target = TARGETS.get(args.target)
    if target is None:
        known = ", ".join(TARGETS)
        return _refuse(f"unknown target {quote(args.target)}; known: {known}")
    try:
        params = _params(args.target, target, args)
    except ParameterError as exc:
        return _refuse(f"invalid parameters: {exc}")
    return _emit(args, argv, args.seed, lambda: target.run(params))


def _read_document(path: str) -> str:
    """The UTF-8 text at ``path``, refused past :data:`MAX_DOCUMENT_BYTES`."""
    with open(path, "rb") as f:  # reads at most one byte past the bound
        data = f.read(MAX_DOCUMENT_BYTES + 1)
    if len(data) > MAX_DOCUMENT_BYTES:
        raise ValueError(f"{quote(path)} is larger than {MAX_DOCUMENT_BYTES} bytes")
    return data.decode()


def _load_ring_spec(spec: str) -> RingPresentation:
    """JSON text if ``spec`` starts with ``{``, a path if it holds ``/`` or ``.``, else a preset."""
    if spec.startswith("{"):
        return RingPresentation.from_json_dict(json.loads(spec))
    if "/" in spec or "." in spec:
        return RingPresentation.from_json_dict(json.loads(_read_document(spec)))
    return preset_ring(spec)


def _cmd_eval(args, argv: list[str]) -> int:
    try:
        ring = _load_ring_spec(args.ring)
    except (OSError, ValueError, RecursionError) as exc:  # undecodable or oversized too
        return _refuse(f"bad ring spec: {_reason(exc)}")
    try:
        value = parse_element(args.expr, ring)
    except ParseError as exc:
        return _refuse(f"parse error: {exc}")
    try:
        lines = [str(value)] + [
            f"degree {k}: {value.homogeneous_part(k)}" for k in value.degrees()
        ]
    except ValueError as exc:  # a coefficient past int-to-str's digit limit
        return _refuse(f"result too large to print: {exc}")
    print("\n".join(lines))
    return 0


def _cmd_scenario(args, argv: list[str]) -> int:
    try:
        doc = json.loads(_read_document(args.path))
    except (OSError, ValueError, RecursionError) as exc:  # undecodable or oversized too
        return _refuse(f"cannot read scenario: {_reason(exc)}")
    try:
        factors, samples, seed, tolerances = parse_scenario(doc)
    except ScenarioError as exc:
        return _refuse(f"scenario schema violation: {exc}")
    try:
        return _emit(
            args,
            argv,
            seed,
            lambda: [run_batch(factors, samples=samples, seed=seed, tolerances=tolerances)],
        )
    except (CalibrationError, PatchDomainError, IllConditionedMetric) as exc:
        message = " ".join(str(exc).split())  # a point's array repr may wrap
        return _refuse(f"scenario outside the numeric model's range: {message}")


# -- argument parsing ---------------------------------------------------------


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("md", "json"), default="md")
    p.add_argument("--out", metavar="PATH", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crchern", allow_abbrev=False,
        description="Exact verification of Chern-class constraints for "
        "spherical CR structures on circle bundles.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = partial(sub.add_parser, allow_abbrev=False)

    p_verify = add_parser("verify", help="run a named verification target")
    p_verify.add_argument("target", help=f"one of: {', '.join(TARGETS)}")
    for name, flag in FLAGS.items():
        p_verify.add_argument(_option(name), type=flag.parse, default=None, dest=name)
    p_verify.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    _add_output_flags(p_verify)

    p_eval = add_parser("eval", help="evaluate an expression in a ring")
    p_eval.add_argument(
        "--ring",
        required=True,
        help="JSON text ('{...'), a path to it (holding '/' or '.'), or a preset (fpp*cp:2)",
    )
    p_eval.add_argument("expr")

    p_scn = add_parser("scenario", help="run a JSON scenario file")
    p_scn.add_argument("path")
    _add_output_flags(p_scn)

    return parser


_COMMANDS = {
    "verify": _cmd_verify,
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
