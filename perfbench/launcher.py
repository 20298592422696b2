"""Spawns and reaps the benchmark's child processes, one at a time.

It runs as a small interpreter of its own because Linux reports, as the peak
memory of a child, at least the peak of the process that spawned it: the
child shares its parent's memory until it executes the new program. A
launcher that stays small keeps that floor below what any extc run uses.

Reads one JSON request per line on stdin, with the keys `argv`, `env`,
`stdout`, `stderr` and `timeout`, and answers each with one JSON line with
the keys `status`, `wall_s`, `peak_rss_kib` and `timed_out`. Exits at the
end of its input.
"""
import json
import os
import select
import signal
import sys
import time


def run(argv, env, stdout, stderr, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(timeout * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(pidfd)
    return {"status": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "peak_rss_kib": usage.ru_maxrss, "timed_out": timed_out}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(**json.loads(line))), flush=True)
