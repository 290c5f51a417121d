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
    generator per container and one chunk per token.  This writer appends
    its pieces to one list and joins them once; a container's ``str``,
    ``int``, ``bool`` and ``None`` items are written in its own loop, and a
    dict's sorted keys come from :data:`_KEY_PREFIXES`.  Exact scalars,
    finite exact floats (``float.__repr__``, the standard library's own
    rule), lists, and dicts whose keys are all ``str`` are written here;
    any other value (NaN and infinities, tuples, subclasses, other keys)
    goes to ``json.dumps`` and is re-indented to its depth.  That is exact
    because encoded JSON holds a raw newline only in its layout, and it
    raises the standard library's error for a value JSON cannot hold.
    """
    out: list[str] = []
    try:
        _write(value, pad, out)
    except RecursionError:  # circular or too deep: as the standard library fails
        return dumps(value, indent=2, sort_keys=True).replace("\n", pad)
    return "".join(out)


# A dict's keys in insertion order -> its sorted keys, each with its encoded
# ``"key": `` prefix.  Only tuples of exact ``str`` keys are kept; a dict
# whose keys are equal ``str``-subclass instances is written in ``str``
# order, which is the standard library's unless the subclass redefines
# ``<``.  The table stays small: every dict a run renders has keys that the
# program fixes (a report, a witness, a certificate) or that a
# schema-checked document fixes, so a few key tuples cover a whole run (7
# for ``verify thm-1-2``, 27 for ``verify all``).
_KEY_PREFIXES: dict[tuple, tuple[tuple[str, str], ...]] = {}


def _key_prefixes(keys: tuple) -> tuple[tuple[str, str], ...] | None:
    """The entry of ``keys`` in :data:`_KEY_PREFIXES`, made and kept on first
    use; ``None`` when a key is not a ``str``."""
    ordered = sorted(keys)  # mixed key types raise as the stdlib does
    if any(type(key) is not str for key in ordered):
        return None
    entry = _KEY_PREFIXES[keys] = tuple(
        (key, encode_basestring_ascii(key) + ": ") for key in ordered
    )
    return entry


def _write(value: object, pad: str, out: list[str]) -> None:
    """Append ``value`` encoded at the depth whose line break and indent is
    ``pad`` to ``out``.  A container writes its ``str``, ``int``, ``bool``
    and ``None`` items itself and calls this only for the others."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        keys = tuple(value)
        prefixes = _KEY_PREFIXES.get(keys) or _key_prefixes(keys)
        if prefixes is None:  # the stdlib's key conversions
            out.append(dumps(value, indent=2, sort_keys=True).replace("\n", pad))
            return
        inner = pad + "  "
        sep, comma = "{" + inner, "," + inner
        for key, prefix in prefixes:
            item = value[key]
            kind = type(item)
            if kind is str:
                out.append(sep + prefix + encode_basestring_ascii(item))
            elif kind is int:
                out.append(sep + prefix + int.__repr__(item))
            elif kind is bool or item is None:
                out.append(sep + prefix + _CONSTANTS[item])
            else:
                out.append(sep + prefix)
                _write(item, inner, out)
            sep = comma
        out.append(pad + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            kind = type(item)
            if kind is str:
                out.append(sep + encode_basestring_ascii(item))
            elif kind is int:
                out.append(sep + int.__repr__(item))
            elif kind is bool or item is None:
                out.append(sep + _CONSTANTS[item])
            else:
                out.append(sep)
                _write(item, inner, out)
            sep = comma
        out.append(pad + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and isfinite(value):
        out.append(float.__repr__(value))
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    else:
        out.append(dumps(value, indent=2, sort_keys=True).replace("\n", pad))
