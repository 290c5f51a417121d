"""Write ``reference.json``: the report digests each workload must reproduce.

Usage, from the repository root: ``python3 bench/make_reference.py``

Run this only at a commit whose outputs define correctness; the file
records the commit it was taken at.  Exact reports are seed-independent,
so one run per workload at seed 0 fixes them; numeric reports contribute
only their (check, params, status) key.
"""

import json
import shutil
import sys

from check import REFERENCE, digest
from run import MANIFEST, WORK, WORKLOADS, git_commit, run_child, workload_inputs


def main() -> int:
    workloads = {}
    for name in WORKLOADS:
        work = WORK / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            argv, files, _seed = workload_inputs(name, 0)
            for fname, text in files.items():
                (work / fname).write_text(text)
            record, err = run_child(work, argv, False, 600)
            if record is None or record["exit"] != 0:
                print(f"{name}: run failed: {err}", file=sys.stderr)
                return 1
            manifest = json.loads((work / MANIFEST).read_text())
        finally:
            shutil.rmtree(work, ignore_errors=True)
        workloads[name] = digest(manifest)
    doc = {"commit": git_commit(), "workloads": workloads}
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
