"""Starts the `cli` workload's children, from a process small enough that
each child's peak memory is its own.

On Linux, exec records the peak resident size of the image it replaces, so
a child started straight from the benchmark process would report at least
the benchmark's own size.  Reads pickled (argv, cwd, env, timeout) tuples
from stdin and writes back pickled (CompletedProcess or the exception
raised, peak KiB over the children so far).  Exits at end of input.
"""

import pickle
import resource
import subprocess
import sys


def main() -> int:
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            argv, cwd, env, timeout = pickle.load(requests)
        except EOFError:
            return 0
        try:
            reply = subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                                   timeout=timeout, check=False)
        except (OSError, subprocess.SubprocessError) as exc:
            reply = exc
        pickle.dump((reply, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss), replies)
        replies.flush()


if __name__ == "__main__":
    sys.exit(main())
