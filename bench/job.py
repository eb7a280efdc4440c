"""Run one quandlekit command in this fresh interpreter and time it.

    python3 bench/job.py RECORD MODE -- ARGV...

Imports quandlekit from ``src`` (so the import, numpy included, is part of
the set-up a CLI user pays), then times ``quandlekit.cli.main(ARGV)``.  The
command's stdout passes through untouched; the timings go to the JSON file
RECORD.  MODE=1 installs the tracer first; MODE=setup stops after the
import, to time set-up alone.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from quandlekit import cli  # noqa: E402

T_READY = time.perf_counter()


def write(record_path, record):
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def main():
    record_path, mode, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "setup":
        write(record_path, {"ready": T_READY})
        return
    tracer = None
    if mode == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    raised = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(rest[1:])
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # reported as a failed job, not a crashed run
        rc, raised = None, "%s: %s" % (type(exc).__name__, exc)
    job_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = {
        "ready": T_READY,
        "start": t0,
        "job_s": job_s,
        "rc": rc,
        "raised": raised,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        record["trace"] = tracer.snapshot()
    write(record_path, record)


if __name__ == "__main__":
    main()
