"""The bounds the benchmark pins agree with the curvature batch's defaults.

``bench/check.py`` holds its own copy of the batch's tolerances, so that
a program change cannot loosen the check it is measured by.  A renamed
maximum or a changed default must then fail here, in the fast suite, and
not only in the slow benchmark tests.  The file is loaded read-only, the
way ``tests/test_bench_spans.py`` loads ``bench/spans.py``.
"""

import importlib.util
from pathlib import Path

from crchern.kahler.scenario import BOUNDS, CONTROL_FLOOR, DEFAULT_TOLERANCES

CHECK_FILE = Path(__file__).resolve().parent.parent / "bench" / "check.py"


def load_check():
    spec = importlib.util.spec_from_file_location("bench_check", CHECK_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pinned_maxima_are_rows_with_the_pinned_default():
    check = load_check()
    bound_of = {maximum: bound for _name, maximum, bound in BOUNDS}
    assert set(check.MAXIMA_BOUNDS) <= set(bound_of)
    for maximum, pinned in check.MAXIMA_BOUNDS.items():
        assert DEFAULT_TOLERANCES[bound_of[maximum]] == pinned, maximum


def test_pinned_flatness_control_and_convergence_bounds():
    check = load_check()
    assert check.FLAT_S_MAX == DEFAULT_TOLERANCES["s_max"]
    assert check.CONTROL_FLOOR == CONTROL_FLOOR
    assert check.CONVERGENCE_RANGE == (
        DEFAULT_TOLERANCES["convergence_low"],
        DEFAULT_TOLERANCES["convergence_high"],
    )
