"""Verification outcomes, and the one manifest of a run: its content
(:func:`build_manifest`) and its text in JSON or Markdown (:func:`render_manifest`).
"""

from __future__ import annotations

from datetime import datetime, timezone
from json import dumps
from json.encoder import encode_basestring_ascii

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
    command: list[str], reports: list[CheckReport], seed: int, with_timestamp: bool
) -> dict:
    """The manifest dict of a run, its reports ordered by check and then params."""
    reports = sorted(reports, key=lambda r: (r.check, dumps(r.params, sort_keys=True)))
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


def render_manifest(manifest: dict, fmt: str) -> list[str]:
    """The text of ``manifest`` in ``fmt``, ``"json"`` or ``"md"``, with its final
    newline, as pieces: one per report and a few short ones between them."""
    pieces = (manifest_json if fmt == "json" else manifest_markdown)(manifest)
    pieces.append("\n")
    return pieces


def manifest_markdown(manifest: dict) -> list[str]:
    """A summary table of the reports, then each report's params, assertions and
    residuals: the summary is the first piece and each report section one more."""
    lines = [
        f"# crchern {manifest['version']} -- {manifest['status'].upper()}",
        "",
        f"command: `{' '.join(manifest['command'])}`  ",
        f"seed: {manifest['seed']}",
    ]
    if "timestamp" in manifest:
        lines.append(f"timestamp: {manifest['timestamp']}")
    lines += ["", "| check | params | status |", "|---|---|---|"]
    for rep in manifest["reports"]:
        params = ", ".join(f"{k}={v}" for k, v in sorted(rep["params"].items()))
        lines.append(f"| {rep['check']} | {params} | {rep['status']} |")
    lines.append("")
    pieces = ["\n".join(lines)]
    for rep in manifest["reports"]:
        # a section starts with the line break that joins it to the piece before
        lines = ["", f"## `{rep['check']}` -- {rep['status']}"]
        params = ", ".join(f"`{k}={v}`" for k, v in sorted(rep["params"].items()))
        if params:
            lines.append(params)
        lines += ["", "| assertion | ok |", "|---|---|"]
        lines += [f"| {a['name']} | {'yes' if a['ok'] else 'NO'} |" for a in rep["assertions"]]
        if rep["residuals"]:
            lines += ["", "residuals: " + dumps(rep["residuals"])]
        lines.append("")
        pieces.append("\n".join(lines))
    return pieces


def manifest_json(value: object) -> list[str]:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, as pieces.

    With an ``indent`` the standard library encodes in pure Python, one
    generator per container and one chunk per token.  This writer joins
    one string per container instead, except at the top two levels
    (a manifest and its ``reports`` list): there each item is its own
    piece, so the pieces of a manifest are its reports and the short
    text between them, and nothing holds the whole text at once.  Exact
    ``str``, ``int``, ``bool`` and ``None`` values, lists, and dicts whose
    keys are all ``str`` are written here; any other value (floats,
    tuples, subclasses, other keys) goes to ``json.dumps`` and is
    re-indented to its depth.  That is exact because encoded JSON holds a
    raw newline only in its layout, and it raises the standard library's
    error for a value JSON cannot hold.
    """
    try:
        return _pieces(value, "\n", 2)
    except RecursionError:  # circular or too deep: as the standard library fails
        return [dumps(value, indent=2, sort_keys=True)]


def _pieces(value: object, pad: str, levels: int) -> list[str]:
    """``value`` encoded at the depth whose line break and indent is ``pad``:
    each item of its top ``levels`` container levels starts a piece, and
    each item below them is one :func:`_write` string."""
    kind = type(value)
    if not levels or not value or (kind is not list and kind is not dict):
        return [_write(value, pad)]
    if kind is dict:
        keys = sorted(value)  # mixed key types raise as the stdlib does
        if any(type(key) is not str for key in keys):
            return [_write(value, pad)]  # the stdlib's key conversions
        items = [(encode_basestring_ascii(key) + ": ", value[key]) for key in keys]
        brackets = "{}"
    else:
        items, brackets = [("", item) for item in value], "[]"
    inner = pad + "  "
    pieces, sep = [], brackets[0] + inner
    for head, item in items:
        pieces.append(sep + head)
        pieces += _pieces(item, inner, levels - 1)
        sep = "," + inner
    pieces.append(pad + brackets[1])
    return pieces


def _write(value: object, pad: str) -> str:
    """``value`` encoded at the depth whose line break and indent is ``pad``."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
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

