"""One benchmarked process: import the CLI, stamp the time, run one command.

    python3 bench/child.py STAMP_FILE TRACE_FILE|- [lorentz-embed arguments...]

STAMP_FILE receives {"ready": t, "done": t} as time.perf_counter() readings,
which share CLOCK_MONOTONIC with the parent on Linux, so the parent can turn
them into set-up and wall times measured from its own spawn time. "ready"
is taken once lorentz_embed.cli is imported; "done" once main() has returned,
i.e. once the report is written. With no command arguments the process stops
after the import (a set-up probe). With a TRACE_FILE other than "-" the
package's public functions are wrapped by spans.install() before the command
runs and the spans are written there afterwards.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import lorentz_embed.cli as cli  # noqa: E402

ready = time.perf_counter()


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def main(argv):
    stamp_file, trace_file, command = argv[0], argv[1], argv[2:]
    if not command:
        _write_json(stamp_file, {"ready": ready})
        return 0
    tracer = None
    if trace_file != "-":
        import spans
        tracer = spans.install()
    code = cli.main(command)
    done = time.perf_counter()
    _write_json(stamp_file, {"ready": ready, "done": done})
    if tracer is not None:
        _write_json(trace_file, tracer.dump())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
