"""Every function the package defines is entered by some command.

``commands()`` runs in process under a call tracer (``sys.settrace``, call
events only).  A function defined in ``src/`` that none of them enters
fails the test unless ``UNREACHED`` names it with a reason; so does an
entry of ``UNREACHED`` that a command enters or that names no function,
so the list holds only what it has to.  Code that only the tests need
belongs in ``tests/`` (``tests/reference.py``), not in the package.

Code objects are matched to ``def`` statements by file and first line,
which for a decorated function is its first decorator's line;
``co_qualname`` would name them directly, but only from Python 3.11.
Lambdas are not counted.  The memos of the package are emptied first, so
that no command is answered from work an earlier test did.  The commands
run once for the module; each has its own test of its exit code and
streams, so a command that stops doing what the list says is named.  The
refusals among them are the one list of ``tests/test_refusals.py``.
"""

from __future__ import annotations

import ast
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path, PurePath

import pytest
from test_refusals import document, refusal_argvs, resolve

import crchern
from crchern import cli
from crchern.chern import report

SRC = Path(crchern.__file__).resolve().parent
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"

_BENCH_BINDING = "a span of bench/spans.py binds it, so it must exist"
_AT_IMPORT = "runs at import only, before any command"
_RECORD = "record protocol that tests/test_records.py holds; no command copies, changes or reprs a record"
_ELEMENT = "element protocol that tests/test_ring.py holds; no command copies, changes or reprs an element"
_WITNESS = "kept for the self-contained witnesses of ROADMAP item 4"

# dotted name under crchern -> why no command enters it
UNREACHED = {
    "chern.bundles.chern_projective_space": _BENCH_BINDING,
    "chern.bundles.chern_surface": _BENCH_BINDING,
    "chern.bundles.chern_fake_projective_plane": _BENCH_BINDING,
    "chern.bundles.trivial_bundle": _BENCH_BINDING,
    "kahler.patch.metric_at": _BENCH_BINDING,
    "kahler.tensors.point_tensors": _BENCH_BINDING,
    "cohomology.ring.Record.__init_subclass__": _AT_IMPORT,
    "cli.Flag.__init__": _AT_IMPORT,
    "cli.Target.__init__": _AT_IMPORT,
    "cohomology.ring.CoefficientDomain.__init__": _AT_IMPORT,
    "cli.entrypoint": "the console script's entry, which runs only in a subprocess",
    "cohomology.ring.Record.__setattr__": _RECORD,
    "cohomology.ring.Record.__delattr__": _RECORD,
    "cohomology.ring.Record.__reduce__": _RECORD,
    "cohomology.ring.Record.__repr__": _RECORD,
    "cohomology.ring.RingElement.__setattr__": _ELEMENT,
    "cohomology.ring.RingElement.__delattr__": _ELEMENT,
    "cohomology.ring.RingElement.__reduce__": _ELEMENT,
    "cohomology.ring.RingElement.__repr__": _ELEMENT,
    "cohomology.ring.RingPresentation.__str__": _WITNESS,
    "cohomology.ring.RingPresentation.to_json_dict": _WITNESS,
    "cohomology.ring.RingElement.coefficient": "element API that the tests read coefficients through",
    "cohomology.ring.RingElement.__neg__": "element API that the tests negate through",
    "cohomology.ring.RingElement.__rsub__": "element API that the tests subtract from scalars through",
}


def commands() -> list[tuple[str, int, tuple]]:
    """(name, exit code, argv) of every ``verify`` target, the benchmark's
    commands, the shipped scenarios, ``eval`` on presets and on Z and Q
    rings, and every refusal of ``tests/test_refusals.py``; each argv as
    :func:`test_refusals.resolve` takes it."""
    out = ["--format", "json", "--no-timestamp", "--out", PurePath("manifest.json")]
    ring = {"coefficients": "Q", "generators": [{"name": "t", "degree": 2, "truncation": 3}]}
    pair = {"factors": [{"dim": 3, "hsc": "1"}, {"dim": 3, "hsc": "-1"}], "samples": 4}
    runs = [
        *(["verify", target] for target in cli.TARGETS),
        ["verify", "all", "--seed", "3", "--tol", "0.5", "--format", "md"],
        # the benchmark's workloads
        ["verify", "thm-1-2", "--n-max", "28", *out],
        ["scenario", document(pair), *out],
        ["verify", "all", "--n-max", "24", "--samples", "2", *out],
        ["scenario", str(EXAMPLES / "bochner_flat_pair.json")],
        ["eval", "--ring", "fpp*cp:2", "(t + 3*h)^2"],
        ["eval", "--ring", "surface:2*nilsquare:2", "1 - 2*s + 1/2*t1*t2"],
        ["eval", "--ring", json.dumps({**ring, "coefficients": "Z"}), "(1 + t)^3 - 2*t"],
        ["eval", "--ring", document(ring), "(1/2 + t)^2 * (t - 1)"],
    ]
    # the equal-sign control fails its assertions by design
    control = ["scenario", str(EXAMPLES / "equal_sign_control.json")]
    listed = [(0, argv) for argv in runs] + [(1, control)]
    refusals = [(name, 2, argv) for name, argv in refusal_argvs().items()]
    return [(_command_id(argv), code, tuple(argv)) for code, argv in listed] + refusals


def _definitions() -> dict[tuple[Path, int], str]:
    """(file, first line) -> dotted name under crchern, for every ``def``."""
    found = {}

    def visit(node: ast.AST, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), path, f"{module}.")
    return found


def _clear_memos() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("crchern."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):  # an lru_cache memo
                    value.cache_clear()
    report._KEY_PREFIXES.clear()  # the manifest writer's table of key tuples


def _command_id(argv: list) -> str:
    """A name for ``argv`` that holds no temporary path: rings, inline or in
    a document, by their coefficients, and files by their name."""
    words = []
    for arg in argv:
        if isinstance(arg, PurePath) or arg.startswith(str(EXAMPLES)):
            words.append(PurePath(arg).name)
        elif arg.startswith("{"):  # an inline ring, or a document's text
            doc = json.loads(arg)
            words.append(f"ring-{doc['coefficients']}" if "coefficients" in doc else "scenario-document")
        else:
            words.append(arg)
    return " ".join(words)


COMMAND_IDS = [name for name, _, _ in commands()]
assert len(set(COMMAND_IDS)) == len(COMMAND_IDS), "two commands share a name"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Each command of ``commands()`` run once under the call tracer:
    (expected code, code, stdout, stderr, runs of cli.main, code objects
    entered)."""
    tmp = tmp_path_factory.mktemp("commands")
    main = cli.main.__code__
    runs = []
    _clear_memos()
    for _, expected, argv in commands():
        argv = resolve(argv, tmp)
        entered = set()

        def tracer(frame, event, arg):
            # called on each call event; returning None asks for no line events
            entered.add(frame.f_code)

        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            sys.settrace(tracer)
            try:
                code = cli.main(argv)
            finally:
                sys.settrace(None)
        mains = sum(c is main for c in entered)
        runs.append((expected, code, stdout.getvalue(), stderr.getvalue(), mains, entered))
    return runs


@pytest.mark.parametrize("index", range(len(COMMAND_IDS)), ids=COMMAND_IDS)
def test_command_exits_as_listed_under_the_tracer(traced, index):
    expected, code, stdout, stderr, mains, _ = traced[index]
    assert mains == 1, "the tracer missed the run of cli.main"
    assert code == expected
    if code == 2:  # a refusal writes its reason to stderr and nothing else
        assert stderr and not stdout
    else:
        assert not stderr


def test_every_function_is_entered_by_a_command_or_listed(traced):
    definitions = _definitions()
    assert len(definitions) > 200  # the walk found the package
    assert len(traced) == len(COMMAND_IDS)
    entered = set().union(*(run[-1] for run in traced))

    reached = {definitions.get((Path(c.co_filename).resolve(), c.co_firstlineno)) for c in entered}
    names = set(definitions.values())
    assert len(names) == len(definitions), "two definitions share a name"
    unreached = names - reached
    unlisted = sorted(unreached - set(UNREACHED))
    stale = sorted(set(UNREACHED) - unreached)
    assert not unlisted, f"no command enters these; move them to tests/ or delete them: {unlisted}"
    assert not stale, f"listed in UNREACHED, but a command enters them or they do not exist: {stale}"
