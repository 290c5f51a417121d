"""Verification outcomes, and the one manifest of a run: its text in JSON or
Markdown, rendered report by report as the run produces them (:func:`build_manifest`).
"""

from __future__ import annotations

from datetime import datetime, timezone
from json import dumps
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from typing import Iterable

from .. import __version__
from ..cohomology.ring import Record

_CONSTANTS = {True: "true", False: "false", None: "null"}


class CheckReport(Record):
    """Outcome of one named verification.

    The verdict is not stored: ``status`` is read off the assertions,
    "pass" exactly when every recorded sub-assertion holds (an empty
    list passes), so a report cannot disagree with its own evidence.
    The raw assertions are kept so a report can be audited without
    rerunning the check.
    """

    __slots__ = ("check", "params", "assertions", "witnesses", "residuals")

    def __init__(
        self,
        check: str,
        params: dict,
        assertions: list[tuple[str, bool]] | None = None,
        witnesses: list | None = None,
        residuals: list | None = None,
    ) -> None:
        # an omitted list is a new empty one
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "assertions", [] if assertions is None else assertions)
        object.__setattr__(self, "witnesses", [] if witnesses is None else witnesses)
        object.__setattr__(self, "residuals", [] if residuals is None else residuals)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.assertions)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "assertions": [
                {"name": name, "ok": ok} for name, ok in self.assertions
            ],
            "witnesses": self.witnesses,
            "residuals": self.residuals,
        }


def build_manifest(
    command: list[str], reports: Iterable[CheckReport], seed: int, with_timestamp: bool, fmt: str
) -> tuple[bool, list[str]]:
    """Whether every report passed, and the manifest's text in ``fmt``,
    ``"json"`` or ``"md"``, with its final newline, as pieces.

    Each report is rendered as it arrives and then dropped, its sort key
    and verdict kept with its text.  The texts are ordered by check and
    then params, stably, and framed by the run's command, seed, status,
    tool, version and timestamp.  JSON is ``json.dumps(manifest,
    indent=2, sort_keys=True)`` of the manifest dict, byte for byte, in
    pieces: the frame's items, each report and the text between them.
    Markdown is a summary table, then each report's params, assertions
    and residuals: one piece for the head, each row and each section.
    """
    render = _json_entry if fmt == "json" else _markdown_entry
    entries = sorted(
        (((r.check, dumps(r.params, sort_keys=True)), r.passed, render(r)) for r in reports),
        key=itemgetter(0),
    )
    passed = all(entry[1] for entry in entries)
    frame = {
        "tool": "crchern",
        "version": __version__,
        "command": command,
        "seed": seed,
        "status": "pass" if passed else "fail",
    }
    if with_timestamp:
        frame["timestamp"] = datetime.now(timezone.utc).isoformat()
    frame_pieces = _json_frame if fmt == "json" else _markdown_frame
    return passed, frame_pieces(frame, entries)


def _json_entry(report: CheckReport) -> str:
    return json_text(report.to_json_dict(), "\n    ")


def _json_frame(frame: dict, entries: list[tuple]) -> list[str]:
    pieces, sep = [], "{\n  "
    for key in sorted([*frame, "reports"]):
        pieces.append(sep + encode_basestring_ascii(key) + ": ")
        sep = ",\n  "
        if key != "reports":
            pieces.append(json_text(frame[key], "\n  "))
        elif entries:
            for i, (_, _, text) in enumerate(entries):
                pieces += [",\n    " if i else "[\n    ", text]
            pieces.append("\n  ]")
        else:
            pieces.append("[]")
    pieces.append("\n}\n")
    return pieces


def _markdown_entry(report: CheckReport) -> tuple[str, str]:
    """The report's summary row and its section; a section starts with the
    line break that joins it to the text before it."""
    params = sorted(report.params.items())
    row = f"| {report.check} | {', '.join(f'{k}={v}' for k, v in params)} | {report.status} |\n"
    lines = ["", f"## `{report.check}` -- {report.status}"]
    if params:
        lines.append(", ".join(f"`{k}={v}`" for k, v in params))
    lines += ["", "| assertion | ok |", "|---|---|"]
    lines += [f"| {name} | {'yes' if ok else 'NO'} |" for name, ok in report.assertions]
    if report.residuals:
        lines += ["", "residuals: " + dumps(report.residuals)]
    lines.append("")
    return row, "\n".join(lines)


def _markdown_frame(frame: dict, entries: list[tuple]) -> list[str]:
    lines = [
        f"# crchern {frame['version']} -- {frame['status'].upper()}",
        "",
        f"command: `{' '.join(frame['command'])}`  ",
        f"seed: {frame['seed']}",
    ]
    if "timestamp" in frame:
        lines.append(f"timestamp: {frame['timestamp']}")
    lines += ["", "| check | params | status |", "|---|---|---|", ""]
    rows = [row for _, _, (row, _) in entries]
    sections = [section for _, _, (_, section) in entries]
    return ["\n".join(lines), *rows, *sections, "\n"]


def json_text(value: object, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, at the
    depth whose line break and indent is ``pad``.

    With an ``indent`` the standard library encodes in pure Python, one
    generator per container and one chunk per token.  This writer joins
    one string per container instead.  Exact ``str``, ``int``, ``bool``
    and ``None`` values, finite exact floats (``float.__repr__``, the
    standard library's own rule), lists, and dicts whose keys are all
    ``str`` are written here; any other value (NaN and infinities,
    tuples, subclasses, other keys) goes to ``json.dumps`` and is
    re-indented to its depth.  That is exact because encoded JSON holds
    a raw newline only in its layout, and it raises the standard
    library's error for a value JSON cannot hold.
    """
    try:
        return _write(value, pad)
    except RecursionError:  # circular or too deep: as the standard library fails
        return dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _write(value: object, pad: str) -> str:
    """``value`` encoded at the depth whose line break and indent is ``pad``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    inner = pad + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_write(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = []
        for key in sorted(value):  # mixed key types raise as the stdlib does
            if type(key) is not str:
                break  # the stdlib's key conversions: the fallback below
            items.append(encode_basestring_ascii(key) + ": " + _write(value[key], inner))
        else:
            return "{" + inner + ("," + inner).join(items) + pad + "}"
    return dumps(value, indent=2, sort_keys=True).replace("\n", pad)

