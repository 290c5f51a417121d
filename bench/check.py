"""Output check for one benchmark repetition.

A repetition passes when crchern returned 0 and wrote a manifest that

* parses as JSON, names the tool ``crchern``, the exact argv and the seed
  the benchmark passed, and has top-level status ``pass``;
* holds the same multiset of ``(check, params, status)`` as the reference
  (``reference.json``, taken at the commit it records);
* for every exact report (every check except ``bochner-flat-batch``) has
  the same canonical JSON bytes as the reference, compared by SHA-256;
* for every numeric report has every assertion ``ok`` and its recorded
  maxima inside the tolerances pinned below, so their low-order bits may
  change but their verdicts and margins may not.

Canonical JSON is ``json.dumps(report, sort_keys=True, separators=(",", ":"))``:
exact reports hold only strings, integers, booleans and nulls, so parsing
and re-serializing them loses nothing.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

NUMERIC_CHECK = "bochner-flat-batch"

# The tolerances of crchern's curvature batch, pinned here so that a
# program change cannot loosen the check it is measured by.
MAXIMA_BOUNDS = {
    "curvature_rel_err": 1e-6,
    "r_symmetry": 1e-6,
    "p_trace": 1e-9,
    "s_trace": 1e-6,
    "cross_block": 1e-6,
    "divergence": 1e-3,
}
FLAT_S_MAX = 1e-6
CONTROL_FLOOR = 1e-2
CONVERGENCE_RANGE = (3.5, 4.5)

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def report_entry(report: dict) -> list:
    """``[key, sha256 or None]``: the key is the canonical (check, params,
    status) with a numeric report's seed left out; the digest is taken of
    exact reports only."""
    params = dict(report["params"])
    exact = report["check"] != NUMERIC_CHECK
    if not exact:
        params.pop("seed", None)
    key = _canonical([report["check"], params, report["status"]])
    digest = hashlib.sha256(_canonical(report).encode()).hexdigest() if exact else None
    return [key, digest]


def digest(manifest: dict) -> list[list]:
    return sorted((report_entry(r) for r in manifest["reports"]), key=_canonical)


def load_reference(workload: str) -> list[list]:
    return json.loads(REFERENCE.read_text())["workloads"][workload]


def _numeric_problems(report: dict, seed: int) -> list[str]:
    where = f"{report['check']} {_canonical(report['params'])}"
    out = []
    if report["params"].get("seed") != seed:
        out.append(f"{where}: seed is not {seed}")
    out += [f"{where}: assertion failed: {a['name']}" for a in report["assertions"] if a["ok"] is not True]
    witness = report["witnesses"][0]
    maxima = witness["maxima"]
    for name, bound in MAXIMA_BOUNDS.items():
        if not maxima[name] <= bound:
            out.append(f"{where}: {name} = {maxima[name]} exceeds {bound}")
    low, high = CONVERGENCE_RANGE
    if not low <= witness["convergence_factor"] <= high:
        out.append(f"{where}: convergence factor {witness['convergence_factor']} outside [{low}, {high}]")
    s_inf = maxima["s_inf"]
    if report["params"]["expect_flat"]:
        if not s_inf <= FLAT_S_MAX:
            out.append(f"{where}: |S|_inf = {s_inf} exceeds {FLAT_S_MAX}")
    elif not (s_inf > CONTROL_FLOOR and math.isfinite(s_inf)):
        out.append(f"{where}: control |S|_inf = {s_inf} not above {CONTROL_FLOOR}")
    return out


def manifest_problems(path: Path, argv: list[str], seed: int, reference: list[list]) -> list[str]:
    """Everything wrong with the manifest at ``path``; empty when it passes."""
    try:
        manifest = json.loads(path.read_text())
        if manifest["tool"] != "crchern":
            return [f"tool is {manifest['tool']!r}"]
        out = []
        if manifest["command"] != argv:
            out.append(f"command is {manifest['command']!r}")
        if manifest["seed"] != seed:
            out.append(f"seed is {manifest['seed']!r}, expected {seed}")
        if manifest["status"] != "pass":
            out.append(f"status is {manifest['status']!r}")
        entries = digest(manifest)
        if entries != reference:
            got = Counter(map(_canonical, entries))
            want = Counter(map(_canonical, reference))
            out += [f"unexpected report {e}" for e in sorted(got - want)][:5]
            out += [f"missing report {e}" for e in sorted(want - got)][:5]
        for report in manifest["reports"]:
            if report["check"] == NUMERIC_CHECK:
                out += _numeric_problems(report, seed)
        return out
    except FileNotFoundError:
        return ["no manifest written"]
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"malformed manifest: {type(exc).__name__}: {exc}"]
