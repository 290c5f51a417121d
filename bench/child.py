"""One benchmark repetition in a fresh interpreter.

Usage: python bench/child.py RECORD TRACE ARG...

Imports ``crchern.cli`` (timed as set-up), calls ``crchern.cli.main(ARG...)``
(timed as wall time) and writes a JSON record of both timings, the mean
machine-speed probe (``probe.py``) during each, the exit code, CPU time
and peak resident memory to RECORD.  With TRACE = 1 the
per-layer spans of ``spans.py`` are installed between the two and their
totals are added to the record.
"""

import sys
import time


def main() -> None:
    record_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]

    import probe

    probe.start()
    start = time.perf_counter()
    import crchern.cli

    setup_s = time.perf_counter() - start
    setup_probes = len(probe.samples)

    import json
    import platform
    import resource

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    main_probes = len(probe.samples)
    cpu_start = time.process_time()
    start = time.perf_counter()
    code = crchern.cli.main(argv)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    probe.stop()
    during_setup, during_main = probe.samples[:setup_probes], probe.samples[main_probes:]

    record = {
        "exit": code,
        "versions": {"python": platform.python_version(), "numpy": sys.modules["numpy"].__version__},
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "probe": {
            "setup_s": sum(during_setup) / len(during_setup) if during_setup else None,
            "main_s": sum(during_main) / len(during_main) if during_main else None,
            "samples": len(probe.samples),
        },
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.snapshot() if tracer else None,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
