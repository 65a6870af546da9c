"""Peak resident memory of radsurj calls in one fresh process.

    PYTHONPATH=src python3 bench/rss.py '["missing"]' FILE...

runs ``radsurj <command> FILE --stable`` through ``cli.main`` for each
FILE in turn, collecting garbage before each call as run.py does, with
the arguments after the command taken from the JSON list, and prints
the peak resident memory of the process that ran them, in KiB.

The calls run in a process forked before radsurj is imported.  Linux
carries the peak of the process that started this interpreter across
exec into this one's, but a forked process starts its own.
"""

from __future__ import annotations

import gc
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout


def run(argv: list[str], paths: list[str]) -> None:
    from radsurj import cli

    for path in paths:
        gc.collect()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv[:1] + [path, "--stable"] + argv[1:])
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)


def main() -> int:
    argv, paths = json.loads(sys.argv[1]), sys.argv[2:]
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            run(argv, paths)
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
