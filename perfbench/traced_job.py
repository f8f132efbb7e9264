"""Run one CLI job with spans and exact counts around flagalg's functions.

Usage: python3 perfbench/traced_job.py TRACE_OUT JOB_ID spans|counts CLI-ARGS...

The job runs through flagalg.cli.main with the same arguments the untraced
job gets, so it calls the same public functions in the same order; the
report still goes to stdout and the exit code is the CLI's.  Spans and
counts go to TRACE_OUT when the job ends.  ``counts`` also counts ring
operations, which slows the job too much for its spans to be timed.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402

import flagalg.cli  # noqa: E402


def main():
    out_path, job_id, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4:]
    tracer = Tracer()
    tracer.install(count_ring_ops=mode == "counts")
    code = flagalg.cli.main(argv)
    tracer.dump(out_path, job_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
