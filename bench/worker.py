"""Workload process.  Usage: worker.py WORKLOAD SRC_DIR, run spec on stdin.

It imports the package from SRC_DIR, prints ``ready <monotonic time>`` as
soon as a first job could start, then runs the spec read from stdin.  An
empty stdin makes it a set-up probe that exits right after the ready line.
Nothing but the package import may run before that line, because the
parent reports the interval from spawn to ready as set-up time.
"""

import os
import sys
import time


def main() -> int:
    workload, src = sys.argv[1], sys.argv[2]
    import multiaxial

    if workload != "closed_form":
        import multiaxial.cli  # noqa: F401
    origin = os.path.realpath(multiaxial.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        print(f"multiaxial was imported from {origin}, not {src}", file=sys.stderr)
        return 1
    print(f"ready {time.monotonic()!r}", flush=True)
    import passes

    return passes.serve(workload)


if __name__ == "__main__":
    sys.exit(main())
