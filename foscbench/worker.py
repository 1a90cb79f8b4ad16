"""The process that runs a workload's ops: a fresh interpreter that loads
foscillator and ``ops.py`` and nothing the package does not load itself, so
its start-up time and peak memory are the library's.

``run.py`` starts it as ``python3 foscbench/worker.py`` with the checkout's
``src`` on ``PYTHONPATH`` and talks to it over its standard streams: it reads
one pickled op at a time from stdin, runs it with ``ops.attempt`` and writes
the pickled ``(seconds, status, payload)`` back before reading the next.  It
exits with 0 when stdin closes.  Whatever the library prints goes to stderr,
so it cannot mix with the replies.
"""

import os
import pickle
import sys

import foscillator

import ops


def main() -> int:
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    requests = sys.stdin.buffer
    declared = ops.declared_errors(foscillator)
    while True:
        try:
            op = pickle.load(requests)
        except EOFError:
            return 0
        pickle.dump(ops.attempt(foscillator, op, declared), replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


if __name__ == "__main__":
    sys.exit(main())
