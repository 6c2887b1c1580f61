"""Host process for one ``repro-ids worker --connect`` of the fabric.

Runs the real worker command, ``repro.cli.main(["worker", "--connect",
ADDR])``.  With ``--spans FILE`` it first installs the benchmark's span
wrappers (see ``spans.py``) and appends every span to FILE, one JSON
list per line on ``CLOCK_MONOTONIC``.  ``--die-on-task`` turns it into
the stub the harness self-test uses: a worker that claims a task and
exits before answering.

    PYTHONPATH=src python3 e2ebench/worker_host.py --connect HOST:PORT
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--connect", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--die-on-task", action="store_true")
    args = parser.parse_args()

    import repro.cli
    import repro.runtime.net

    if args.die_on_task:
        def die(*_args, **_kwargs):
            os._exit(3)
        repro.runtime.net.execute_task = die
    if args.spans:
        from spans import Tracer

        tracer = Tracer(sink=open(args.spans, "a", encoding="ascii"))
        tracer.install()
        tracer.active = True
    return repro.cli.main(["worker", "--connect", args.connect])


if __name__ == "__main__":
    sys.exit(main())
