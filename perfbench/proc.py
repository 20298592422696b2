"""Child interpreters for the untraced runs: one pinned set-up, one at a time.

Every child is `sys.executable` itself (a `python3` found on PATH may be a
shell shim that adds its own start-up) with `-S`, so no site hook runs:
`.pth` files of the installation may import packages extc never uses, and
that cost is the installation's, not extc's. Every `PYTHON*` variable of the
parent is dropped, which lets the children write and reuse the bytecode
cache of `src/extc` as an installed tool would; `PYTHONPATH` points at the
checkout's `src` and `PYTHONHASHSEED` is fixed so set order is the same in
every child. `PYTHONPYCACHEPREFIX` is left unset: pointing it at an empty
directory would recompile the standard library on every start.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

CHECK = "from extc.cli import main; main()"  # what the `extc` entry point runs
IMPORT = "import extc.cli"

# A fixed program that does the kinds of work `extc check` does (scanning text
# with a regular expression, building and walking trees of small objects,
# copying dicts, splitting lines) without importing extc. Its wall time,
# taken right after a check, measures how fast the machine runs at that
# moment, so the benchmark can take out drift in the machine's speed.
CALIBRATE = r"""
import re
src = "def f(a, b) do\n  x = a + b * 3\n  [x | rest] = g(x, {1, 2})\nend\n" * 4000
token = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")
class Node:
    __slots__ = ("kind", "kids", "pos")
    def __init__(self, kind, kids, pos):
        self.kind, self.kids, self.pos = kind, kids, pos
def build(tokens, i, depth):
    kids = []
    while i < len(tokens) and len(kids) < 6:
        t = tokens[i]
        i += 1
        if depth < 4 and t[2] in "([{":
            node, i = build(tokens, i, depth + 1)
        else:
            node = Node(t[0] or t[1] or t[2], (), i)
        kids.append(node)
    return Node("seq", kids, i), i
def walk(node, env):
    env = dict(env)
    env[node.kind] = node.pos
    return 1 + sum(walk(kid, env) for kid in node.kids)
tokens = [m.groups(default="") for m in token.finditer(src)]
trees, i = [], 0
while i < len(tokens):
    tree, i = build(tokens, i, 0)
    trees.append(tree)
nodes = sum(walk(tree, {}) for tree in trees)
lines = sum(len(src[k:].splitlines()) for k in range(0, len(src), len(src) // 50))
"""

TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Outcome:
    status: int  # exit status, or minus the signal number
    wall_s: float  # from spawn to reaped exit
    peak_rss_mb: float  # the child's own peak resident set, from wait4
    timed_out: bool
    stderr: str

    @property
    def crashed(self) -> bool:
        """Crashed, hung, exited outside {0, 1, 2} or printed a traceback."""
        return (self.timed_out or self.status not in (0, 1, 2)
                or TRACEBACK in self.stderr)


class Interpreter:
    """Runs `python -S -c <code> <args>` with the pinned environment, through
    `launcher.py`. Use it as a context manager: leaving it ends the launcher."""

    def __init__(self, root: Path):
        self.argv = [sys.executable, "-S"]
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        self.env = env
        self.launcher = subprocess.Popen(
            [*self.argv, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> Interpreter:
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def describe(self) -> str:
        return f"{' '.join(self.argv)} with PYTHONPATH=src PYTHONHASHSEED=0, other PYTHON* unset"

    def run(self, code: str, args: list[str], stdout: Path, stderr: Path,
            timeout: float) -> Outcome:
        """Run one child to completion, its output going to the given files."""
        request = {"argv": [*self.argv, "-c", code, *args], "env": self.env,
                   "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        print(json.dumps(request), file=self.launcher.stdin, flush=True)
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        answer = json.loads(reply)
        return Outcome(
            status=answer["status"],
            wall_s=answer["wall_s"],
            peak_rss_mb=answer["peak_rss_kib"] * 1024 / 1e6,
            timed_out=answer["timed_out"],
            stderr=stderr.read_text(errors="replace"),
        )
