"""A small helper process that starts every timed command and reports its rusage.

On Linux a child started by ``subprocess`` (vfork, then exec) takes its
parent's peak RSS as the floor of its own ``ru_maxrss``.  The benchmark
process imports numpy and rqtraj and parses whole output files, so a
command it started itself would report max(benchmark peak, command peak).
The spawner is started first, runs with ``python3 -S`` and imports only
the standard library; the commands it starts inherit its own small peak
instead.  It reads one JSON request per line on stdin and answers one JSON
line per request on stdout: wall seconds, exit code and peak RSS.

Run as a script it is the helper; ``Spawner`` is the client.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path


def serve(requests, replies):
    """Run each requested command to completion, one at a time."""
    for line in requests:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                    stdout=out, stderr=err)
            # this one child's rusage; RUSAGE_CHILDREN would give the
            # maximum over every child so far
            _, status, rusage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"wall": wall, "code": proc.returncode,
                                  "maxrss_kib": rusage.ru_maxrss}) + "\n")
        replies.flush()


class Spawner:
    """Client of one helper process; close it (or use ``with``) to stop the helper."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: Path, env: dict, log: Path):
        """Run one process to completion: (wall seconds, exit code, peak RSS in MB).

        Its standard output and error go to ``log`` with suffixes ``.out`` and ``.err``.
        """
        req = {"argv": [str(a) for a in argv], "cwd": str(cwd), "env": env,
               "stdout": str(log.with_suffix(".out")), "stderr": str(log.with_suffix(".err"))}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return reply["wall"], reply["code"], reply["maxrss_kib"] * 1024 / 1e6

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
