"""Verification outcomes, and the one manifest of a run: its content
(:func:`build_manifest`) and its text in JSON or Markdown (:func:`render_manifest`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from json import dumps
from json.encoder import encode_basestring_ascii

from .. import __version__

_CONSTANTS = {True: "true", False: "false", None: "null"}


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification.

    The verdict is not stored: ``status`` is read off the assertions,
    "pass" exactly when every recorded sub-assertion holds (an empty
    list passes), so a report cannot disagree with its own evidence.
    The raw assertions are kept so a report can be audited without
    rerunning the check.
    """

    check: str
    params: dict
    assertions: list[tuple[str, bool]] = field(default_factory=list)
    witnesses: list = field(default_factory=list)
    residuals: list = field(default_factory=list)

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


def render_manifest(manifest: dict, fmt: str) -> str:
    """The text of ``manifest`` in ``fmt``, ``"json"`` or ``"md"``, with its final newline."""
    return (manifest_json if fmt == "json" else manifest_markdown)(manifest) + "\n"


def manifest_markdown(manifest: dict) -> str:
    """A summary table of the reports, then each report's params, assertions and residuals."""
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
    for rep in manifest["reports"]:
        lines.append(f"## `{rep['check']}` -- {rep['status']}")
        params = ", ".join(f"`{k}={v}`" for k, v in sorted(rep["params"].items()))
        if params:
            lines.append(params)
        lines += ["", "| assertion | ok |", "|---|---|"]
        lines += [f"| {a['name']} | {'yes' if a['ok'] else 'NO'} |" for a in rep["assertions"]]
        if rep["residuals"]:
            lines += ["", "residuals: " + dumps(rep["residuals"])]
        lines.append("")
    return "\n".join(lines)


def manifest_json(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With an ``indent`` the standard library encodes in pure Python, one
    generator per container and one chunk per token.  This writer joins
    one string per container instead.  Exact ``str``, ``int``, ``bool``
    and ``None`` values, lists, and dicts whose keys are all ``str`` are
    written here; any other value (floats, tuples, subclasses, other
    keys) goes to ``json.dumps`` and is re-indented to its depth.  That
    is exact because encoded JSON holds a raw newline only in its
    layout, and it raises the standard library's error for a value JSON
    cannot hold.
    """
    try:
        return _write(value, "\n")
    except RecursionError:  # circular or too deep: as the standard library fails
        return dumps(value, indent=2, sort_keys=True)


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

