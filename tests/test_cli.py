import argparse
import errno
import gc
import hashlib
import io
import json
import os
import stat
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import manifest_dict

from crchern import cli
from crchern.cli import main
from crchern.cohomology.ring import quote
from crchern.kahler.scenario import (
    DEFAULT_TOLERANCES,
    HSC_PATTERN,
    MAX_HSC_CHARS,
    MAX_SAMPLES,
    ScenarioError,
    parse_scenario,
    run_batch,
)

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_prop_1_3_markdown(self, capsys):
        code, out, _ = run_cli(
            ["verify", "prop-1-3", "--n", "2", "--d", "5", "--no-timestamp"], capsys
        )
        assert code == 0
        assert "integral-constraint-counterexample" in out
        assert '\nresiduals: [{"class": "-3 mod 5"}]\n' in out

    def test_thm_1_1_json(self, capsys):
        code, out, _ = run_cli(
            ["verify", "thm-1-1", "--n", "2", "--format", "json", "--no-timestamp"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "pass"
        assert doc["reports"][0]["check"] == "first-chern-nonvanishing"

    def test_unknown_target_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "nope"], capsys)
        assert code == 2
        assert "unknown target" in err

    def test_invalid_params_exit_2(self, capsys):
        assert run_cli(["verify", "thm-1-1", "--n", "1"], capsys)[0] == 2
        assert run_cli(["verify", "prop-4-1", "--n", "3"], capsys)[0] == 2
        assert run_cli(["verify", "prop-1-3", "--d", "0"], capsys)[0] == 2
        assert run_cli(["verify", "prop-1-4", "--m", "1"], capsys)[0] == 2
        # 2^m nilsquare terms: m is bounded above too
        code, _, err = run_cli(["verify", "prop-1-4", "--m", "13"], capsys)
        assert code == 2 and err == "invalid parameters: prop-1-4 requires --m in 2..12\n"
        # every size flag but --d is bounded above; one past the bound is refused
        for argv, bound in [
            (["verify", "thm-1-2", "--n-max", "41"], "--n-max in 2..40"),
            (["verify", "thm-1-2", "--n", "41"], "--n in 2..40"),
            (["verify", "tractor", "--n-max", "41"], "--n-max in 1..40"),
            (["verify", "tractor", "--n", "61"], "--n in 1..60"),
            (["verify", "all", "--n-max", "41"], "--n-max in 2..40"),
            (["verify", "thm-1-1", "--n", "1001"], "--n in 2..1000"),
            (["verify", "prop-1-3", "--n", "1001"], "--n in 2..1000"),
            (["verify", "prop-4-1", "--n", "1001"], "--n in 4..1000"),
            (["verify", "bochner-products", "--samples", "51"], "--samples in 1..50"),
            (["verify", "all", "--samples", "51"], "--samples in 1..50"),
        ]:
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"invalid parameters: {argv[1]} requires {bound}\n"
        # a flag the target does not take is refused, not ignored
        for argv, flag in [
            (["verify", "thm-1-1", "--d", "7"], "--d"),
            (["verify", "thm-1-1", "--samples", "3"], "--samples"),
            (["verify", "all", "--n", "3"], "--n"),
            (["verify", "tractor", "--tol", "1"], "--tol"),
        ]:
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, "")
            assert err == f"invalid parameters: {argv[1]} does not take {flag}\n"

    @pytest.mark.parametrize("label", ["thm-1-2", "tractor"])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_n_runs_the_n_max_reports_of_that_n_only(self, capsys, label, n):
        def reports(flag, n_only):
            argv = ["verify", label, flag, str(n), "--format", "json", "--no-timestamp"]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            return [
                json.dumps(r, indent=2, sort_keys=True)
                for r in json.loads(out)["reports"]
                if r["params"]["n"] == n or not n_only
            ]

        single = reports("--n", n_only=False)
        assert single and single == reports("--n-max", n_only=True)

    @pytest.mark.parametrize(
        "label,check",
        [
            ("thm-1-2", "verify_spherical_on_circle_bundle"),
            ("tractor", "tractor_determinant_check"),
        ],
    )
    def test_n_with_n_max_refused(self, capsys, monkeypatch, label, check):
        # one of the two would otherwise be silently ignored
        monkeypatch.setattr(cli, check, lambda *a, **k: pytest.fail("a check ran"))
        code, out, err = run_cli(["verify", label, "--n", "2", "--n-max", "3"], capsys)
        assert (code, out) == (2, "")
        assert err == f"invalid parameters: {label} takes --n or --n-max, not both\n"

    def test_seed_accepted_by_every_target(self):
        for name, target in cli.TARGETS.items():
            args = cli.build_parser().parse_args(["verify", name, "--seed", "5"])
            assert cli._params(name, target, args)["seed"] == 5

    def test_tractor_alias(self, capsys):
        code, out, _ = run_cli(
            ["verify", "tractor", "--n", "2", "--no-timestamp"], capsys
        )
        assert code == 0

    def test_tractor_single_n(self, capsys):
        code, out, _ = run_cli(
            ["verify", "tractor", "--n", "3", "--format", "json", "--no-timestamp"], capsys
        )
        assert code == 0
        (report,) = json.loads(out)["reports"]
        assert report["check"] == "tractor-determinant-identity"
        assert report["params"]["n"] == 3

    def test_thm_1_2_families_small(self, capsys):
        code, out, _ = run_cli(
            [
                "verify",
                "thm-1-2",
                "--n-max",
                "3",
                "--format",
                "json",
                "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        families = {
            rep["params"].get("family")
            for rep in doc["reports"]
        }
        assert families == {"genus2-surface x cp", "cp"}  # fpp needs n >= 4

    def test_manifest_sorted_and_deterministic(self, capsys):
        argv = [
            "verify",
            "prop-1-4",
            "--m",
            "2",
            "--format",
            "json",
            "--no-timestamp",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical without timestamps
        doc = json.loads(out1)
        keys = [
            (r["check"], json.dumps(r["params"], sort_keys=True))
            for r in doc["reports"]
        ]
        assert keys == sorted(keys)
        # lossless round trip: parse and re-serialize reproduces the bytes
        assert json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n" == out1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "manifest.json"
        code, out, _ = run_cli(
            [
                "verify",
                "prop-1-3",
                "--format",
                "json",
                "--out",
                str(target),
                "--no-timestamp",
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["status"] == "pass"

    @pytest.mark.parametrize("where", ["missing-dir", "is-a-dir", "empty"])
    def test_unwritable_out_exit_2_one_line(self, capsys, tmp_path, where):
        paths = {"missing-dir": tmp_path / "missing" / "x.json", "is-a-dir": tmp_path, "empty": ""}
        target = paths[where]
        code, out, err = run_cli(
            ["verify", "thm-1-2", "--n-max", "3", "--out", str(target)], capsys
        )
        assert code == 2
        assert out == ""
        assert err.startswith("cannot write manifest: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_manifest_matches_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "manifest.schema.json").read_text())
        code, out, _ = run_cli(
            ["verify", "prop-1-3", "--format", "json", "--no-timestamp"], capsys
        )
        jsonschema.validate(json.loads(out), schema)

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run_cli(
            ["verify", "prop-1-3", "--format", "json"], capsys
        )
        assert "timestamp" in json.loads(out)


@pytest.mark.parametrize(
    "argv,check",
    [
        (["verify", "all", "--n-max", "24", "--samples", "0"], "check_thm_1_1"),
        (["verify", "thm-1-2", "--out", "MISSING"], "verify_spherical_on_circle_bundle"),
        (["verify", "thm-1-1", "--out", ""], "check_thm_1_1"),
        (["scenario", "SCENARIO", "--out", ""], "run_batch"),
        (["verify", "prop-1-4", "--m", "40"], "check_prop_1_4"),
        (["verify", "thm-1-1", "--d", "7", "--samples", "3"], "check_thm_1_1"),
        (["verify", "thm-1-2", "--n-max", "41"], "verify_spherical_on_circle_bundle"),
        (["verify", "tractor", "--n", "61"], "tractor_determinant_check"),
        (["verify", "prop-1-3", "--n", "1001"], "check_prop_1_3"),
        (["verify", "all", "--samples", "51"], "run_batch"),
    ],
    ids=[
        "out-of-range",
        "unwritable-out",
        "empty-out",
        "scenario-empty-out",
        "unbounded-m",
        "foreign-flag",
        "n-max-high",
        "tractor-n-high",
        "n-high",
        "samples-high",
    ],
)
def test_refusals_come_before_any_check(capsys, monkeypatch, tmp_path, flat_pair, argv, check):
    calls = []

    def check_called(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a check ran before the refusal")

    monkeypatch.setattr(cli, check, check_called)
    paths = {"MISSING": str(tmp_path / "missing" / "x.json"), "SCENARIO": flat_pair}
    code, out, err = run_cli([paths.get(a, a) for a in argv], capsys)
    assert (code, out, calls) == (2, "", [])
    assert err.count("\n") == 1 and "Traceback" not in err


# every name through which a command reaches work: none may run on a refusal
_WORK = (
    "check_thm_1_1",
    "check_prop_1_3",
    "check_prop_4_1",
    "check_prop_1_4",
    "verify_spherical_on_circle_bundle",
    "tractor_determinant_check",
    "run_batch",
    "parse_element",
)


@pytest.fixture
def flat_pair(tmp_path):
    """A single-sample matched-pair scenario file, the cheapest that runs."""
    return _scenario_with(tmp_path)


def _scenario_with(tmp_path, **extra):
    """``flat_pair``'s scenario with the top-level keys ``extra`` added."""
    path = tmp_path / "scenario.json"
    factors = [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}]
    path.write_text(json.dumps({"factors": factors, "samples": 1, **extra}))
    return str(path)


def _refuse_all_work(monkeypatch):
    for name in _WORK:
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("work ran"))


def _long_options():
    """(command, option, takes a value) for every long option that
    ``build_parser`` defines; command ``None`` is the top-level parser."""
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, p in [(None, parser), *sub.choices.items()]:
        for action in p._actions:
            for option in action.option_strings:
                if option.startswith("--"):
                    yield command, option, action.nargs != 0


@pytest.mark.parametrize("command,option,takes_value", list(_long_options()))
def test_every_option_cut_short_is_refused(
    capsys, monkeypatch, tmp_path, flat_pair, command, option, takes_value
):
    # argparse's prefix matching would read each of these as the option
    _refuse_all_work(monkeypatch)
    name = option[2:].replace("-", "_")
    target = next((t for t, entry in cli.TARGETS.items() if name in entry.flags), "prop-1-3")
    command_argv = {
        None: [],
        "verify": ["verify", target],
        "eval": ["eval", "t"] + ([] if option == "--ring" else ["--ring", "cp:2"]),
        "scenario": ["scenario", flat_pair],
    }[command]
    value = {"--format": "json", "--out": str(tmp_path / "m.json"), "--ring": "cp:2"}
    cut = [option[:-1]] + ([value.get(option, "2")] if takes_value else [])
    # a top-level option goes before a command that would run on its own
    argv = cut + ["verify", "prop-1-3"] if command is None else command_argv + cut
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert option[:-1] in err or option[:-1] == "--"  # "--" ends the options


def test_scenario_n_is_not_no_timestamp(capsys, monkeypatch, flat_pair):
    _refuse_all_work(monkeypatch)
    code, out, err = run_cli(["scenario", flat_pair, "--n", "3"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --n 3\n")


_DIALECTS = ["\u0663", "\uff13", "1_0", " 3 ", "+3", "1" * 4301]  # ARABIC-INDIC and FULLWIDTH 3
_NUMBER_FLAGS = [
    ["verify", "thm-1-1", "--n"],
    ["verify", "thm-1-2", "--n-max"],
    ["verify", "prop-1-3", "--d"],
    ["verify", "prop-1-4", "--m"],
    ["verify", "bochner-products", "--samples"],
    ["verify", "prop-1-3", "--seed"],
    ["verify", "bochner-products", "--tol"],
]


@pytest.mark.parametrize(
    "argv,value",
    [(argv, value) for argv in _NUMBER_FLAGS for value in _DIALECTS]
    + [(["verify", "bochner-products", "--tol"], " \u0661e-3 ")],
    ids=lambda x: " ".join(x) if isinstance(x, list) else repr(x)[:12],
)
def test_numbers_in_another_spelling_are_refused(capsys, monkeypatch, argv, value):
    _refuse_all_work(monkeypatch)
    code, out, err = run_cli([*argv, value], capsys)
    assert (code, out) == (2, "")
    assert f"argument {argv[-1]}: " in err and "Traceback" not in err


@pytest.mark.parametrize("value", _DIALECTS, ids=lambda v: repr(v)[:12])
def test_document_seed_in_another_spelling_is_refused(capsys, monkeypatch, tmp_path, value):
    # a scenario's seed is a JSON integer of its document, never a string
    _refuse_all_work(monkeypatch)
    code, out, err = run_cli(["scenario", _scenario_with(tmp_path, seed=value)], capsys)
    assert (code, out, err) == (2, "", "scenario schema violation: 'seed' must be an integer\n")


# Every refusal that names a command-line or document input: the argv
# for the input ``x``.
_NAMING_REFUSALS = {
    "unknown-target": lambda x, tmp: ["verify", x],
    "--n": lambda x, tmp: ["verify", "thm-1-1", "--n", x],
    "--tol": lambda x, tmp: ["verify", "bochner-products", "--tol", x],
    "--seed": lambda x, tmp: ["verify", "prop-1-3", "--seed", x],
    "ring-path": lambda x, tmp: ["eval", "--ring", f"{x}.json", "t"],
    "unknown-preset": lambda x, tmp: ["eval", "--ring", x, "t"],
    "unknown-identifier": lambda x, tmp: ["eval", "--ring", "cp:2", x],
    "unexpected-token": lambda x, tmp: ["eval", "--ring", "cp:2", f"t {x}"],
    "scenario-key": lambda x, tmp: ["scenario", _scenario_with(tmp, **{x: 1})],
    "tolerance-key": lambda x, tmp: ["scenario", _scenario_with(tmp, tolerances={x: 1})],
}


@pytest.mark.parametrize("site", _NAMING_REFUSALS)
@pytest.mark.parametrize("length", [10, 4000])
def test_refusal_lines_quote_a_bounded_prefix_of_the_input(capsys, tmp_path, site, length):
    # a short input is named whole; a long one by a prefix, so every line
    # stays short
    text = "x" * length
    code, out, err = run_cli(_NAMING_REFUSALS[site](text, tmp_path), capsys)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert all(len(line.encode()) < 200 for line in err.splitlines())
    assert (text in err) == (length == 10)
    assert text[:10] in err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        lambda tmp: ["verify", "tractor", "--n", "2", "--seed", "-5"],
        lambda tmp: ["verify", "bochner-products", "--samples", "1", "--seed", "-5"],
        lambda tmp: ["scenario", _scenario_with(tmp, seed=-5)],
    ],
    ids=["verify", "bochner-products", "scenario"],
)
def test_negative_seeds_run(capsys, tmp_path, argv):
    code, out, _ = run_cli([*argv(tmp_path), "--format", "json", "--no-timestamp"], capsys)
    assert code == 0 and json.loads(out)["seed"] == -5


def test_run_that_raises_keeps_an_existing_out(monkeypatch, tmp_path):
    target = tmp_path / "manifest.json"
    target.write_text("earlier manifest\n")

    def check_raises(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "check_prop_1_3", check_raises)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "prop-1-3", "--out", str(target)])
    assert target.read_text() == "earlier manifest\n"
    fresh = tmp_path / "fresh.json"
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "prop-1-3", "--out", str(fresh)])
    assert not fresh.exists()
    monkeypatch.undo()
    assert main(["verify", "prop-1-3", "--format", "json", "--out", str(target)]) == 0
    assert json.loads(target.read_text())["status"] == "pass"


@pytest.mark.parametrize("caller_froze", [False, True], ids=["none-frozen", "caller-froze"])
def test_main_leaves_the_frozen_objects_as_it_found_them(tmp_path, monkeypatch, caller_froze):
    # main freezes what is alive when it starts, for its own run only; a
    # caller's frozen objects are neither unfrozen nor joined by main's
    argv = ["verify", "thm-1-1", "--n", "2", "--out", str(tmp_path / "manifest.md")]
    assert gc.get_freeze_count() == 0
    assert main(argv) == 0  # caches filled, so the run below frees nothing frozen
    during = []
    build = cli.build_manifest
    monkeypatch.setattr(
        cli, "build_manifest", lambda *a: during.append(gc.get_freeze_count()) or build(*a)
    )
    if caller_froze:
        gc.freeze()
    try:
        before = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() == before
    finally:
        gc.unfreeze()
    assert during[0] == before if caller_froze else during[0] > 10_000


def test_targets_call_checks_through_module_names(capsys, monkeypatch):
    # tracing and the test above rebind these names; a runner holding
    # the function object itself would escape both
    seen = []
    original = cli.check_thm_1_1
    monkeypatch.setattr(cli, "check_thm_1_1", lambda n: seen.append(n) or original(n))
    run_cli(["verify", "thm-1-1", "--n", "3"], capsys)
    run_cli(["verify", "all", "--n-max", "2", "--samples", "1"], capsys)
    assert seen == [3, 2]


_GENERATOR = {"name": "t", "degree": 2, "truncation": 3}


def _presentation(coefficients="Q", **generator):
    return {"coefficients": coefficients, "generators": [{**_GENERATOR, **generator}]}


# (id, document): each is read exactly when the presentation schema allows it
_PRESENTATIONS = [
    ("plain", _presentation()),
    ("Z", _presentation("Z")),
    ("no-generators", {"coefficients": "Q", "generators": []}),
    ("mod", _presentation({"mod": 5})),
    ("integral-float-mod", _presentation({"mod": 5.0})),
    ("integral-float-degree", _presentation(degree=2.0)),
    ("integral-float-truncation", _presentation(truncation=3.0)),
    ("fractional-degree", _presentation(degree=2.9)),
    ("fractional-truncation", _presentation(truncation=3.7)),
    ("string-degree", _presentation(degree="2")),
    ("bool-truncation", _presentation(truncation=True)),
    ("bool-mod", _presentation({"mod": True})),
    ("string-mod", _presentation({"mod": "5"})),
    ("mod-below-2", _presentation({"mod": 1})),
    ("extra-mod-key", _presentation({"mod": 5, "x": 1})),
    ("extra-generator-key", _presentation(extra=1)),
    ("extra-top-level-key", {**_presentation(), "extra": 1}),
    ("missing-truncation", {"coefficients": "Q", "generators": [{"name": "t", "degree": 2}]}),
    ("missing-generators", {"coefficients": "Q"}),
    ("unknown-coefficients", _presentation("R")),
    ("odd-degree", _presentation(degree=3)),
    ("zero-truncation", _presentation(truncation=0)),
    ("number-name", _presentation(name=7)),
    ("non-ascii-name", _presentation(name="\u00e9")),
    ("digit-first-name", _presentation(name="1t")),
    ("newline-name", {"coefficients": "Q", "generators": [{"name": "t\n", "degree": 2, "truncation": 3}]}),
    ("generator-not-an-object", {"coefficients": "Q", "generators": [7]}),
    ("generators-not-a-list", {"coefficients": "Q", "generators": {"t": 2}}),
    ("document-not-an-object", [1, 2]),
]


class TestEval:
    @pytest.mark.parametrize(
        "ring,expr,expected",
        [
            ("fpp*cp:2", "(t + 3*h)^2", "t^2 + 6*t*h + 9*h^2"),
            ("cp:2", "(1+t)^3", "1 + 3*t + 3*t^2"),
            ("nilsquare:2", "(t1+t2)^2", "2*t1*t2"),
            ("surface:2", "1 - 2*s", "1 - 2*s"),
        ],
    )
    def test_preset_examples(self, capsys, ring, expr, expected):
        code, out, _ = run_cli(["eval", "--ring", ring, expr], capsys)
        assert code == 0
        assert out.splitlines()[0] == expected

    def test_unicode_product_sign(self, capsys):
        # ``*`` is the one product sign of a preset string
        code, out, err = run_cli(["eval", "--ring", "fpp×cp:2", "t*h"], capsys)
        assert (code, out, err) == (2, "", "bad ring spec: unknown preset 'fpp×cp'\n")

    def test_degree_decomposition_lines(self, capsys):
        _, out, _ = run_cli(["eval", "--ring", "cp:2", "(1+t)^3"], capsys)
        assert out.splitlines()[1:] == [
            "degree 0: 1",
            "degree 2: 3*t",
            "degree 4: 3*t^2",
        ]

    def test_parse_error_exit_2_with_position(self, capsys):
        code, _, err = run_cli(["eval", "--ring", "cp:2", "t + x"], capsys)
        assert code == 2
        assert "position 4" in err

    @pytest.mark.parametrize("source", ["file", "inline"])
    @pytest.mark.parametrize(
        "document",
        [
            b"\xff\xfe{}",
            b'{"coefficients": "Z", "generators": [{"name": "t", "degree": %s, "truncation": 2}]}'
            % (b"1" * 5000),
            b'{"coefficients": "Z", "generators": 5}',
            b'{"coefficients": {"mod": [7]}, "generators": []}',
            b'{"coefficients": {"mod": Infinity}, "generators": []}',
            b'{"a": ' + b"[" * 10**5,
        ],
        ids=[
            "undecodable",
            "5000-digit-integer",
            "generators-not-a-list",
            "mod-not-an-integer",
            "mod-infinite",
            "deep-nesting",
        ],
    )
    def test_unreadable_ring_spec_exit_2_one_line(self, capsys, tmp_path, source, document):
        if source == "file":
            path = tmp_path / "ring.json"
            path.write_bytes(document)
            spec = str(path)
        else:
            spec = document.decode("utf-8", "surrogateescape")  # as argv decodes it
        code, out, err = run_cli(["eval", "--ring", spec, "1"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("bad ring spec: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("source", ["file", "inline"])
    def test_mod_m_coefficients_are_refused(self, capsys, tmp_path, source):
        # coefficients are Z or Q: no statement of the paper is over Z/m
        spec = json.dumps(_presentation({"mod": 5}))
        if source == "file":
            path = tmp_path / "ring.json"
            path.write_text(spec)
            spec = str(path)
        code, out, err = run_cli(["eval", "--ring", spec, "t"], capsys)
        assert (code, out) == (2, "")
        assert err == "bad ring spec: unknown coefficient spec: {'mod': 5}\n"

    def test_presentation_past_the_generator_bound_exit_2_one_line(self, capsys, tmp_path):
        generators = [{"name": f"g{i}", "degree": 2, "truncation": 2} for i in range(1000)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"coefficients": "Q", "generators": generators}))
        code, out, err = run_cli(["eval", "--ring", str(path), "(1+g1)^2"], capsys)
        assert (code, out) == (2, "")
        assert err == "bad ring spec: a presentation has at most 64 generators, got 1000\n"

    @pytest.mark.parametrize("name,document", _PRESENTATIONS, ids=[n for n, _ in _PRESENTATIONS])
    def test_presentation_read_exactly_when_the_schema_allows_it(
        self, capsys, tmp_path, name, document
    ):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "presentation.schema.json").read_text())
        try:
            jsonschema.validate(document, schema)
            valid = True
        except jsonschema.ValidationError:
            valid = False
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(document))
        code, out, err = run_cli(["eval", "--ring", str(path), "1"], capsys)
        if valid:
            assert (code, out, err) == (0, "1\ndegree 0: 1\n", "")
        else:
            assert (code, out) == (2, "")
            assert err.startswith("bad ring spec: ")
            assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "document",
        [
            {"coefficients": "Q", "generators": "x" * 5_000_000},
            {"coefficients": "Q", "generators": [{**_GENERATOR, "k" * 2_000_000: 1}]},
            {"coefficients": "Q", "generators": [{**_GENERATOR, "name": "n" * 1_000_000}] * 2},
            _presentation(truncation=-1e308),
        ],
        ids=[
            "5M-character-generators",
            "2M-character-key",
            "1M-character-duplicate-names",
            "309-digit-truncation",
        ],
    )
    def test_oversized_presentation_refused_quickly_on_one_short_line(
        self, capsys, tmp_path, document
    ):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(document))
        start = time.perf_counter()
        code, out, err = run_cli(["eval", "--ring", str(path), "1"], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "document",
        [
            {"coefficients": "Q", "generators": "x" * 5_000_000},
            {"coefficients": "Q", "generators": [{**_GENERATOR, "k" * 2_000_000: 1}]},
            {"coefficients": "Q", "generators": [{**_GENERATOR, "name": "n" * 1_000_000}] * 2},
        ],
        ids=["5M-character-generators", "2M-character-key", "1M-character-duplicate-names"],
    )
    def test_oversized_inline_presentation_reaches_the_reader(self, capsys, document):
        # as a file each is past the document bound; inline the reader refuses it
        start = time.perf_counter()
        code, out, err = run_cli(["eval", "--ring", json.dumps(document), "1"], capsys)
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert err.startswith("bad ring spec: ") and "larger than" not in err
        assert err.count("\n") == 1 and len(err.encode()) < 200

    def test_ring_specs_are_told_apart_by_syntax(self, capsys, monkeypatch, tmp_path):
        # files named like presets are never read in their place
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fpp").write_text(json.dumps(_presentation(truncation=2)))
        (tmp_path / "cp:2").write_text("not a presentation")
        for ring, expected in [("fpp", "t^2"), ("cp:2", "t^2"), ("./fpp", "0")]:
            code, out, _ = run_cli(["eval", "--ring", ring, "t^2"], capsys)
            assert (code, out.splitlines()[0]) == (0, expected)
        long_preset = "nilsquare:" + "9" * 290
        code, out, err = run_cli(["eval", "--ring", long_preset, "1"], capsys)
        assert (code, out, err) == (2, "", "bad ring spec: nilsquare:M needs M <= 24\n")

    def test_bad_preset_exit_2(self, capsys):
        code, _, err = run_cli(["eval", "--ring", "torus:1", "1"], capsys)
        assert code == 2

    def test_json_ring_spec(self, capsys):
        spec = json.dumps(
            {
                "coefficients": "Q",
                "generators": [{"name": "a", "degree": 2, "truncation": 2}],
            }
        )
        code, out, _ = run_cli(["eval", "--ring", spec, "(1+a)^2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1 + 2*a"

    def test_ring_spec_from_file(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(
            json.dumps(
                {
                    "coefficients": "Z",
                    "generators": [{"name": "t", "degree": 2, "truncation": 4}],
                }
            )
        )
        code, out, _ = run_cli(["eval", "--ring", str(path), "(1+t)^3"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "1 + 3*t + 3*t^2 + t^3"


    @pytest.mark.parametrize(
        "expr",
        ["(" * 3000 + "t" + ")" * 3000, "2^100000000*t", "9" * 5000 + "*t"],
        ids=["deep-nesting", "huge-coefficient", "long-literal"],
    )
    def test_oversized_input_exit_2_one_line(self, capsys, expr):
        code, out, err = run_cli(["eval", "--ring", "cp:2", expr], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_result_past_the_digit_limit_is_refused(self, capsys):
        # two literals inside int-to-str's digit limit whose product is past it
        literal = "9" * (sys.get_int_max_str_digits() // 2 + 1)
        code, out, err = run_cli(["eval", "--ring", "cp:2", f"{literal}*{literal}*t"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("result too large to print: ") and err.count("\n") == 1


    @pytest.mark.parametrize(
        "ring,expr,message",
        [
            ("cp:1000000", "(1+t)^2000", "power would bring the input past 1000000 steps"),
            ("cp:1000000", "(1+t)^8000", "power could have 8001 terms, more than 4096"),
            (
                "cp:10",
                "(1+t)^1" + "0" * 1500,
                "power's coefficients could have more than 4300 digits",
            ),
            (
                "nilsquare:20",
                "*".join(f"(1+t{i})" for i in range(1, 19)),
                "product could have 8192 terms, more than 4096",
            ),
            ("nilsquare:200000", "1", "nilsquare:M needs M <= 24"),
        ],
        ids=["steps", "terms", "digits", "nilsquare-product", "nilsquare-ring"],
    )
    def test_unbounded_work_refused_before_it_starts(self, capsys, ring, expr, message):
        start = time.perf_counter()
        code, out, err = run_cli(["eval", "--ring", ring, expr], capsys)
        assert time.perf_counter() - start < 0.5
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert message in err


# Matched +-hsc pairs that the schema admits but the numeric model refuses.
_BEYOND_MODEL = [
    ("10000", "outside chart of factor dim=1, hsc=-10000"),
    ("1000000", "metric condition number"),
    ("1e8", "outside chart of factor dim=1, hsc=-100000000"),
    ("1e15", "outside chart of factor dim=1, hsc=-1000000000000000"),
    ("1e100", f"outside chart of factor dim=1, hsc=-{10**100}"),
    # f'' = -2c / (2 + c|z|^2)^2 overflows a float at the positive factor's points
    ("1e300", f"outside chart of factor dim=1, hsc={10**300}"),
]


class TestScenario:
    def write(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_flat_scenario_passes(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}], "samples": 4},
        )
        code, out, _ = run_cli(["scenario", path, "--no-timestamp"], capsys)
        assert code == 0

    def test_control_scenario_fails_with_recorded_maximum(self, capsys, tmp_path):
        path = self.write(
            tmp_path,
            {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "1"}], "samples": 4},
        )
        code, out, _ = run_cli(
            ["scenario", path, "--format", "json", "--no-timestamp"], capsys
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["status"] == "fail"
        maxima = doc["reports"][0]["witnesses"][0]["maxima"]
        assert maxima["s_inf"] > 1e-2

    def test_schema_violation_exit_2(self, capsys, tmp_path):
        path = self.write(tmp_path, {"factors": []})
        code, _, err = run_cli(["scenario", path], capsys)
        assert code == 2
        assert "schema violation" in err

    @pytest.mark.parametrize(
        "document",
        [
            b"\xff\xfe{}",
            b'{"factors": [{"dim": %s, "hsc": "1"}]}' % (b"1" * 5000),
            b"[" * 10**5,
        ],
        ids=["undecodable", "5000-digit-integer", "deep-nesting"],
    )
    def test_unreadable_scenario_exit_2_one_line(self, capsys, tmp_path, document):
        path = tmp_path / "scenario.json"
        path.write_bytes(document)
        out_path = tmp_path / "manifest.json"
        code, out, err = run_cli(["scenario", str(path), "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("cannot read scenario: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "tolerances,low,high",
        [
            ({"convergence_low": 5, "convergence_high": 4}, 5.0, 4.0),
            ({"convergence_high": 3}, 3.5, 3.0),
        ],
        ids=["swapped", "high-below-default-low"],
    )
    def test_empty_convergence_range_exit_2(self, capsys, tmp_path, tolerances, low, high):
        doc = {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}], "samples": 1}
        path = self.write(tmp_path, {**doc, "tolerances": tolerances})
        code, out, err = run_cli(["scenario", path], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "scenario schema violation: empty convergence range: "
            f"convergence_low {low} >= convergence_high {high}\n"
        )

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(["scenario", "/nonexistent/path.json"], capsys)
        assert code == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400", "0", "-1", "1" + "0" * 400])
    def test_non_finite_or_non_positive_tolerance_exit_2(self, capsys, tmp_path, value):
        # the equal-sign pair is not flat: an unbounded s_max would pass it
        path = tmp_path / "scenario.json"
        path.write_text(
            '{"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "1"}], '
            '"samples": 1, "tolerances": {"s_max": %s}}' % value
        )
        code, out, err = run_cli(["scenario", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "s_max" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize(
        "hsc,error",
        _BEYOND_MODEL,
        ids=[
            "leaves-chart", "ill-conditioned", "leaves-chart-1e8",
            "chart-below-step", "chart-below-step-1e100", "overflow",
        ],
    )
    def test_curvature_beyond_the_numeric_model_exit_2(
        self, capsys, tmp_path, hsc, error
    ):
        # matched +-hsc pair: valid by the schema, but its charts and
        # metrics are beyond what the finite differences resolve
        path = self.write(
            tmp_path,
            {"factors": [{"dim": 1, "hsc": hsc}, {"dim": 1, "hsc": f"-{hsc}"}], "samples": 2},
        )
        out_path = tmp_path / "manifest.json"
        out_path.write_text("earlier manifest\n")
        code, out, err = run_cli(["scenario", path, "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("scenario outside the numeric model's range: ")
        assert error in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert out_path.read_text() == "earlier manifest\n"

    @pytest.mark.parametrize("dim", [9, 40])
    def test_factor_dimension_beyond_the_sampler_exit_2_at_once(self, capsys, tmp_path, dim):
        path = self.write(tmp_path, {"factors": [{"dim": dim, "hsc": "1"}], "samples": 1})
        out_path = tmp_path / "manifest.json"
        start = time.perf_counter()
        code, out, err = run_cli(["scenario", path, "--out", str(out_path)], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == "scenario schema violation: factor #0: 'dim' must be at most 8\n"
        assert not out_path.exists()

    def test_samples_at_the_bound_parse(self):
        doc = {"factors": [{"dim": 1, "hsc": "1"}], "samples": MAX_SAMPLES}
        assert parse_scenario(doc)[1] == 50
        assert cli.TARGETS["bochner-products"].flags["samples"].high == MAX_SAMPLES

    @pytest.mark.parametrize("samples", [51, 10**9])
    def test_samples_beyond_the_bound_exit_2_at_once(self, capsys, tmp_path, samples):
        path = self.write(tmp_path, {"factors": [{"dim": 1, "hsc": "1"}], "samples": samples})
        out_path = tmp_path / "manifest.json"
        start = time.perf_counter()
        code, out, err = run_cli(["scenario", path, "--out", str(out_path)], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == "scenario schema violation: 'samples' must be at most 50\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("hsc", [" 1 ", "1_000", "+1", ".5", "1."])
    def test_hsc_outside_the_one_syntax_exit_2(self, capsys, tmp_path, hsc):
        # each of these is a string Fraction() accepts
        path = self.write(tmp_path, {"factors": [{"dim": 1, "hsc": hsc}], "samples": 1})
        code, out, err = run_cli(["scenario", path], capsys)
        assert (code, out) == (2, "")
        assert err == f"scenario schema violation: factor #0: bad 'hsc' value {hsc!r}\n"

    # JSON Schema integers include integral floats; each document's
    # all-integer twin replaces its one float by the equal int.
    _INTEGRAL_FLOATS = [
        '{"factors":[{"dim":1.0,"hsc":"1"},{"dim":1,"hsc":"-1"}],"samples":1}',
        '{"factors":[{"dim":1,"hsc":"1"},{"dim":1,"hsc":"-1"}],"samples":1.0}',
        '{"factors":[{"dim":1,"hsc":"1"},{"dim":1,"hsc":"-1"}],"samples":1,"seed":3.0}',
        '{"factors":[{"dim":1,"hsc":1.0},{"dim":1,"hsc":"-1"}],"samples":1}',
    ]

    @pytest.mark.parametrize("text", _INTEGRAL_FLOATS, ids=["dim", "samples", "seed", "hsc"])
    def test_integral_floats_read_as_their_integer_twins(self, capsys, tmp_path, text):
        twin = text.replace(".0", "")
        assert twin != text
        assert parse_scenario(json.loads(text)) == parse_scenario(json.loads(twin))
        reports = []
        for doc in (text, twin):
            path = tmp_path / "scenario.json"
            path.write_text(doc)
            code, out, err = run_cli(
                ["scenario", str(path), "--no-timestamp", "--format", "json"], capsys
            )
            assert (code, err) == (0, "")
            reports.append(out)
        assert reports[0] == reports[1]
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
        jsonschema.validate(json.loads(text), schema)

    @pytest.mark.parametrize("value", ["1.5", "Infinity", "true"])
    @pytest.mark.parametrize("field", ["dim", "samples", "seed", "hsc"])
    def test_non_integers_still_exit_2(self, capsys, tmp_path, field, value):
        values = {"dim": "1", "hsc": '"1"', "samples": "1", "seed": "0", field: value}
        text = (
            '{"factors": [{"dim": %(dim)s, "hsc": %(hsc)s}, {"dim": 1, "hsc": "-1"}], '
            '"samples": %(samples)s, "seed": %(seed)s}' % values
        )
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(["scenario", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("scenario schema violation: ")
        assert err.count("\n") == 1

    def test_refused_run_removes_a_fresh_out(self, capsys, tmp_path):
        # the +-10^4 pair leaves the chart only once the batch is running
        path = self.write(
            tmp_path,
            {"factors": [{"dim": 1, "hsc": "10000"}, {"dim": 1, "hsc": "-10000"}], "samples": 2},
        )
        out_path = tmp_path / "fresh.json"
        code, out, err = run_cli(["scenario", path, "--out", str(out_path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("scenario outside the numeric model's range: ")
        assert not out_path.exists()


# Scenario fuzzing.  Valid documents stay cheap: every valid 'dim' is 1 or 2
# and every valid 'samples' 1 or 2.  Each field is valid more often than
# not, so that many documents run a batch; the invalid values sit on both
# sides of each bound and in the wrong JSON type.
_JSON_SCALAR = st.sampled_from([None, True, 0, -1, 1.5, float("nan"), "", "x", [], {}])
_HSC_VALUES = [
    "1", "-1", "1/2", "-3/2", "2", "-2", "1e-300", "-1e-300", "1e15", "-1e300", "0",
    "1e400", "-1e-400", "1e999999999", "9" * 101, "1/0", "a/b", "inf", 10**400, 1, -1,
]
_HSC = st.sampled_from(_HSC_VALUES) | _JSON_SCALAR
_FACTOR = st.fixed_dictionaries(
    {"dim": st.sampled_from([1, 2, 1, 2, 0, 9, "1", True]), "hsc": _HSC},
    optional={"extra": _JSON_SCALAR},
)
_SCENARIO = st.fixed_dictionaries(
    {"factors": st.lists(_FACTOR, min_size=1, max_size=2) | _JSON_SCALAR},
    optional={
        "samples": st.sampled_from([1, 2, 1, 2, 0, -1, 2.0, "2", True]),
        "seed": st.integers(-(2**70), 2**70) | _JSON_SCALAR,
        "tolerances": st.dictionaries(
            st.sampled_from(["s_max", "divergence", "p_trace", "bogus"]),
            st.sampled_from([1e-3, 1, 10**400, 0, -1.0, float("inf"), "1"]),
            max_size=2,
        ),
    },
)
_SCENARIO_BYTES = (
    _SCENARIO.map(json.dumps).map(str.encode)
    | st.binary(max_size=40)
    | st.sampled_from([b"\xff\xfe{}", b"[]", b"{", b'{"factors": [], "x": 1}', b"[" * 10**5])
)


# (valid document, argv reading it from PATH, prefix of the refusal)
_DOCUMENT_READERS = {
    "scenario": (
        {"factors": [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "-1"}], "samples": 1},
        ["scenario", "PATH", "--no-timestamp"],
        "cannot read scenario: ",
    ),
    "eval": (_presentation(), ["eval", "--ring", "PATH", "1"], "bad ring spec: "),
}


@pytest.mark.parametrize("command", sorted(_DOCUMENT_READERS))
@pytest.mark.parametrize("extra", [0, 1], ids=["at-the-bound", "one-byte-over"])
def test_document_padded_to_the_bound_is_read_and_one_byte_more_is_refused(
    capsys, tmp_path, command, extra
):
    doc, argv, prefix = _DOCUMENT_READERS[command]
    text = json.dumps(doc)
    path = tmp_path / "document.json"
    path.write_text(text + " " * (cli.MAX_DOCUMENT_BYTES - len(text) + extra))
    code, out, err = run_cli([str(path) if a == "PATH" else a for a in argv], capsys)
    if extra == 0:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        bound = cli.MAX_DOCUMENT_BYTES
        assert err == f"{prefix}{quote(str(path))} is larger than {bound} bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
@pytest.mark.parametrize("command", sorted(_DOCUMENT_READERS))
def test_endless_document_is_refused(capsys, command):
    _, argv, prefix = _DOCUMENT_READERS[command]
    start = time.perf_counter()
    code, out, err = run_cli(["/dev/zero" if a == "PATH" else a for a in argv], capsys)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"{prefix}'/dev/zero' is larger than {cli.MAX_DOCUMENT_BYTES} bytes\n"


@pytest.mark.parametrize("command", sorted(_DOCUMENT_READERS))
def test_oversized_document_under_a_long_path_is_named_by_a_prefix(capsys, tmp_path, command):
    _, argv, prefix = _DOCUMENT_READERS[command]
    directory = tmp_path.joinpath(*["d" * 200] * 15)
    directory.mkdir(parents=True)
    path = directory / "document.json"
    path.write_bytes(b" " * (cli.MAX_DOCUMENT_BYTES + 1))
    code, out, err = run_cli([str(path) if a == "PATH" else a for a in argv], capsys)
    assert (code, out) == (2, "")
    bound = cli.MAX_DOCUMENT_BYTES
    assert err == f"{prefix}{quote(str(path))} is larger than {bound} bytes\n"
    assert len(err.encode()) < 200


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(document=_SCENARIO_BYTES)
def test_scenario_fuzz_exits_0_1_or_2_without_traceback(capsys, tmp_path, document):
    path = tmp_path / "scenario.json"
    path.write_bytes(document)
    code = main(["scenario", str(path), "--format", "json", "--no-timestamp"])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.count("\n") == 1
    else:
        assert json.loads(out)["status"] == ("pass" if code == 0 else "fail")


def test_every_hsc_string_the_parser_accepts_validates_against_the_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((SCHEMA_DIR / "scenario.schema.json").read_text())
    string_form = schema["properties"]["factors"]["items"]["properties"]["hsc"]["oneOf"][0]
    assert string_form["pattern"] == HSC_PATTERN
    assert string_form["maxLength"] == MAX_HSC_CHARS
    # the scenarios the tests above run, and the fuzz's strings
    run_by_tests = {"1", "-1", *(h for hsc, _ in _BEYOND_MODEL for h in (hsc, f"-{hsc}"))}
    accepted = 0
    for hsc in sorted(run_by_tests | {v for v in _HSC_VALUES if isinstance(v, str)}):
        doc = {"factors": [{"dim": 1, "hsc": hsc}]}
        try:
            parse_scenario(doc)
        except ScenarioError:
            assert hsc not in run_by_tests
            continue
        jsonschema.validate(doc, schema)
        accepted += 1
    assert accepted >= len(run_by_tests)


def _json_types_only(value):
    """True if ``value`` is built from the JSON types alone, subclasses excluded."""
    if type(value) is dict:
        return all(type(k) is str and _json_types_only(v) for k, v in value.items())
    if type(value) is list:
        return all(map(_json_types_only, value))
    return value is None or type(value) in (str, int, float, bool)


def _small_runs():
    """(argv, reports, seed) of every target with small parameters and of
    both shipped scenarios, the reports run in process."""
    small = {"n_max": 3, "samples": 1}
    runs = []
    for name, target in cli.TARGETS.items():
        argv, params = ["verify", name], {"seed": 0}
        for flag_name, flag in target.flags.items():
            params[flag_name] = value = small.get(flag_name, flag.default)
            if value is not None:
                argv += [cli._option(flag_name), str(value)]
        runs.append((argv, list(target.run(params)), 0))
    for path in sorted((SCHEMA_DIR.parent / "examples").glob("*.json")):
        factors, samples, seed, tolerances = parse_scenario(json.loads(path.read_text()))
        reports = [run_batch(factors, samples=samples, seed=seed, tolerances=tolerances)]
        runs.append((["scenario", str(path)], reports, seed))
    assert len(runs) == len(cli.TARGETS) + 2
    return runs


def test_manifests_are_plain_json_without_a_default():
    for argv, reports, seed in _small_runs():
        manifest = manifest_dict(argv, reports, seed)
        assert _json_types_only(manifest), argv
        assert json.loads(json.dumps(manifest, sort_keys=True)) == manifest
        cli.build_manifest(argv, reports, seed, False, "md")


def test_emitted_manifests_are_the_standard_library_encoding(capsys):
    # the written text is ``json.dumps(indent=2, sort_keys=True)`` of the
    # manifest dict of the same reports (tests/reference.py), before any
    # round trip through JSON
    for argv, reports, seed in _small_runs():
        argv = [*argv, "--format", "json", "--no-timestamp"]
        code, out, _ = run_cli(argv, capsys)
        assert code in (0, 1), argv
        expected = manifest_dict(argv, reports, seed)
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n", argv


class TestBochner:
    def test_witnesses_record_the_tolerances_of_their_maxima(self, capsys):
        argv = ["verify", "bochner-products", "--samples", "1", "--tol", "1e-5"]
        code, out, _ = run_cli([*argv, "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        recorded = [
            (r["params"]["expect_flat"], r["witnesses"][0]["tolerances"])
            for r in json.loads(out)["reports"]
        ]
        loosened = {**DEFAULT_TOLERANCES, "s_max": 1e-5}
        assert sorted(recorded, key=lambda r: r[0]) == [
            (False, DEFAULT_TOLERANCES),  # the control is not held to --tol
            *[(True, loosened)] * 3,
        ]

    def test_a_loosened_control_shows_its_bound(self, capsys, tmp_path):
        # the equal-sign control passes flatness only under a bound of 10,
        # and its witness says so
        path = tmp_path / "loosened.json"
        factors = [{"dim": 1, "hsc": "1"}, {"dim": 1, "hsc": "1"}]
        doc = {"factors": factors, "samples": 2, "tolerances": {"s_max": 10}}
        path.write_text(json.dumps(doc))
        argv = ["scenario", str(path), "--format", "json", "--no-timestamp"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        (witness,) = json.loads(out)["reports"][0]["witnesses"]
        assert witness["tolerances"] == {**DEFAULT_TOLERANCES, "s_max": 10}
        assert 0.01 < witness["maxima"]["s_inf"] <= 10

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400", "0", "-1"])
    @pytest.mark.parametrize("target", ["bochner-products", "all"])
    def test_non_finite_or_non_positive_tol_exit_2(self, capsys, target, value):
        argv = ["verify", target, "--samples", "1", "--tol", value]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        # argparse's usage block, then one error line naming the flag
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--tol" in errors[0]
        assert "Traceback" not in err


def test_verify_all_aggregate(capsys):
    code, out, _ = run_cli(
        [
            "verify",
            "all",
            "--n-max",
            "6",
            "--samples",
            "3",
            "--format",
            "json",
            "--no-timestamp",
        ],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    checks = {r["check"] for r in doc["reports"]}
    assert checks == {
        "first-chern-nonvanishing",
        "spherical-constraint-on-circle-bundle",
        "tractor-determinant-identity",
        "integral-constraint-counterexample",
        "second-chern-nonvanishing",
        "fillable-contact-constraint-violation",
        "bochner-flat-batch",
    }


# SHA-256 of the canonical JSON (sorted keys, compact separators) of the
# list of exact reports, pinned from the manifests as they were before
# the exact layer's fast path (thm-1-2, all) and before the tractor
# check's sparse evaluation (tractor).  Exact output must stay
# byte-identical.
GOLDEN_EXACT_REPORTS = [
    (
        ["verify", "thm-1-2", "--n-max", "12"],
        75,
        "31905d8416b5581fc0157bcec9c4d89c26889ae2bceefab4a26a06dfd1bde0bd",
    ),
    (
        ["verify", "all", "--n-max", "6", "--samples", "1", "--seed", "0"],
        63,
        "2f6abe06cb8c1babf1473bf1038f7631eb8f6569fa2d7f4b48ed2ee0b7d763d0",
    ),
    (
        ["verify", "tractor", "--n-max", "12"],
        12,
        "20af16cb96a205ca79db21854c49f5a7209593ffb5cb9632ace4f5bfb1567cda",
    ),
    (
        # the widest tractor ring the suite multiplies and evaluates in
        ["verify", "tractor", "--n", "40"],
        1,
        "5919fae08726c0ddfe74741a63ff878eba063616a38f7bd7c5a44c50b4cacf4c",
    ),
    (
        ["verify", "thm-1-1", "--n", "40"],
        1,
        "142ad9e551b4fecc38ab21be95757d467e6cda7cdc4ab85512cc36cf400ab205",
    ),
    (
        ["verify", "prop-4-1", "--n", "30"],
        1,
        "cfe12957245a362eb47782cde37ba4f24555e3439067efad8302d4d273566651",
    ),
    (
        ["verify", "prop-1-3", "--n", "30", "--d", "12"],
        1,
        "3b1fae16598b3dc1eb81f0cbdc2674c7d5b082d2d31222271f869c86a3a4b8a4",
    ),
    (
        ["verify", "prop-1-4", "--m", "6"],
        2,
        "41fe29c4c09b225f7ee2607986d631d35e364a2f4203457c3639f591dfd6c99b",
    ),
    (
        # the largest exact sweep: fake-projective-plane residuals up to k = 41
        ["verify", "thm-1-2", "--n-max", "40"],
        271,
        "5cb2f50e00318f06c5814e43aadc11a8be9d3727a656864ffc6aa5ad9b25f706",
    ),
]


@pytest.mark.parametrize(
    "runs",
    [
        *([case] for case in GOLDEN_EXACT_REPORTS),
        # one process: exact work shared between runs must not change a byte
        [GOLDEN_EXACT_REPORTS[0], GOLDEN_EXACT_REPORTS[1], GOLDEN_EXACT_REPORTS[0]],
    ],
    ids=[
        "thm-1-2",
        "all",
        "tractor",
        "tractor-n-40",
        "thm-1-1-n-40",
        "prop-4-1-n-30",
        "prop-1-3-n-30-d-12",
        "prop-1-4-m-6",
        "thm-1-2-n-max-40",
        "thm-1-2-then-all-then-thm-1-2",
    ],
)
def test_exact_reports_are_byte_identical(capsys, runs):
    for argv, count, digest in runs:
        code, out, _ = run_cli([*argv, "--format", "json", "--no-timestamp"], capsys)
        assert code == 0
        reports = [
            r for r in json.loads(out)["reports"] if r["check"] != "bochner-flat-batch"
        ]
        canonical = json.dumps(reports, sort_keys=True, separators=(",", ":"))
        assert len(reports) == count
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest


# SHA-256 of the raw ``--no-timestamp`` standard output, layout included.
# The JSON ones (indent, separators, key order) were pinned from the
# manifests written by ``json.dumps(manifest, indent=2, sort_keys=True)``
# before the manifest writer replaced it; the Markdown ones from the
# renderer before it moved into ``chern.report``.  The last is the
# benchmark's ``spherical-sweep`` command (1.9 MB of JSON), whose layout
# ``bench/check.py`` does not see: it compares canonical JSON.  Every run is exact
# only: the Bochner targets' floats may differ between platforms.
GOLDEN_EMITTED_BYTES = [
    (
        ["verify", "thm-1-2", "--n-max", "12", "--format", "json"],
        "8a242bccf7087952b3d8c9e201b68cd4505f5ff3d2c7c39f539512392446f408",
    ),
    (
        ["verify", "tractor", "--n-max", "12", "--format", "json"],
        "5393608dacedf34ed9c71555f0767335a10b300c87987aa8bd6b0639d851259c",
    ),
    (
        ["verify", "thm-1-2", "--n-max", "12", "--format", "md"],
        "4e9a583e36df2b38ccb70b02b3e29a84c4f358f09431d25dfd489f95010aa189",
    ),
    (
        ["verify", "tractor", "--n-max", "12", "--format", "md"],
        "155765a07b0357c92cf6054719101991342c853a31ad557dd84286148068e6f8",
    ),
    (
        ["verify", "prop-1-3", "--format", "md"],
        "d20bf0c7d6a281c503886cdc8b5f37b4c4c090d13a6244bb2cead0ee34e9589d",
    ),
    (
        ["verify", "prop-1-4", "--format", "md"],
        "a59a087e2d3e9deab9234aee04b3ec7693b4f95d0abeb61f6cb7e1a21f9fb347",
    ),
    (
        ["verify", "thm-1-2", "--n-max", "28", "--format", "json"],
        "2c02821ef1a1aeca642b51f533f92cdce1be2f9d008c79159173b1e9d8018375",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN_EMITTED_BYTES,
    ids=[
        "thm-1-2",
        "tractor",
        "thm-1-2-md",
        "tractor-md",
        "prop-1-3-md",
        "prop-1-4-md",
        "thm-1-2-n-max-28",
    ],
)
def test_emitted_manifest_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli([*argv, "--no-timestamp"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", ["abc", "123"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "prop-1-3"],
        ["verify", "tractor", "--n", "2"],
        ["verify", "bochner-products", "--samples", "1"],
        ["scenario", "SCENARIO"],
    ],
    ids=["prop-1-3", "tractor", "bochner-products", "scenario"],
)
def test_seed_env_is_not_read(capsys, monkeypatch, flat_pair, argv, value):
    # --seed, or a scenario document's seed, is the one spelling of a run's seed
    monkeypatch.setenv("CRCHERN_SEED", value)
    argv = [flat_pair if a == "SCENARIO" else a for a in argv]
    code, out, _ = run_cli([*argv, "--format", "json", "--no-timestamp"], capsys)
    assert code == 0 and json.loads(out)["seed"] == cli.DEFAULT_SEED == 0


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bochner"], "invalid choice: 'bochner'"),
        (["verify", "thm-1-2-formal"], "unknown target 'thm-1-2-formal'; known: thm-1-1, "),
        (["scenario", "SCENARIO", "--seed", "3"], "unrecognized arguments: --seed 3"),
    ],
    ids=["bochner", "thm-1-2-formal", "scenario-seed"],
)
def test_second_spellings_are_refused(capsys, monkeypatch, flat_pair, argv, message):
    # each of these once ran as another spelling of a command, target or seed
    _refuse_all_work(monkeypatch)
    code, out, err = run_cli([flat_pair if a == "SCENARIO" else a for a in argv], capsys)
    assert (code, out) == (2, "")
    assert message in err.splitlines()[-1]


def test_usage_error_exit_2(capsys):
    assert main([]) == 2
    assert main(["verify"]) == 2


def test_console_script_smoke():
    import shutil
    import subprocess

    exe = shutil.which("crchern")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run(
        [exe, "verify", "prop-1-3", "--n", "2", "--d", "5", "--no-timestamp"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "integral-constraint-counterexample" in proc.stdout


def test_python_dash_m_runs_the_cli():
    import subprocess
    import sys

    import crchern

    src = str(Path(crchern.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "crchern", "verify", "thm-1-1", "--n", "2",
         "--format", "json", "--no-timestamp"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "pass"
    assert doc["reports"][0]["check"] == "first-chern-nonvanishing"


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--ring", "cp:2", "2^14000*t"],
        ["verify", "thm-1-2", "--n-max", "3", "--format", "json", "--no-timestamp"],
    ],
    ids=["eval", "verify"],
)
def test_closed_stdout_exits_1_without_traceback(argv):
    import subprocess
    import sys

    import crchern

    src = str(Path(crchern.__file__).resolve().parent.parent)
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crchern", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr == ""


def test_a_reader_that_stops_after_one_byte_ends_the_run_with_exit_1():
    # ``crchern verify thm-1-2 --n-max 28 --format json | head -c 1``: the
    # reader closes the pipe while the 1.9 MB manifest is being written
    import subprocess

    import crchern

    src = str(Path(crchern.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "crchern", "verify", "thm-1-2", "--n-max", "28",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    try:
        assert proc.stdout.read(1) == b"{"
    finally:
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=120)
    assert (code, stderr) == (1, b"")


def test_a_closed_stdout_ends_the_run_with_exit_1_in_process(monkeypatch, tmp_path):
    # the path of the two tests above in this process: the write raises
    # BrokenPipeError, _emit lets it through, and main points the stream's
    # descriptor (a file of this test's) at devnull and returns 1
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["verify", "thm-1-1", "--no-timestamp"]) == 1
    finally:
        os.close(fd)


def test_the_console_entry_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["crchern", "verify", "no-such-target"])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("unknown target 'no-such-target'")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_as_out_exits_2_on_one_line(capsys):
    # /dev/full opens, as an existing file, and refuses every write
    code, out, err = run_cli(["verify", "thm-1-1", "--out", "/dev/full"], capsys)
    assert (code, out) == (2, "")
    assert err == "cannot write manifest: [Errno 28] No space left on device\n"
    assert stat.S_ISCHR(os.stat("/dev/full").st_mode)  # left as it was, not removed
