"""Output of `extc check` and `extc parse` against checked-in expected files.

The expected files under `tests/golden/` hold the exact stdout of each run,
with paths relative to the repository root. Regenerate them after a change
that is meant to alter the output, from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""
import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from extc.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"


def _stdout(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = run(list(argv))
    return code, out.getvalue()


def _parse_corpus() -> tuple[int, str]:
    codes, chunks = set(), []
    for path in sorted((ROOT / "tests" / "corpus").glob("*.ex")):
        name = path.relative_to(ROOT).as_posix()
        code, out = _stdout("parse", name)
        codes.add(code)
        chunks.append(f"== {name}\n{out}")
    return max(codes), "".join(chunks)


# Expected file -> (exit status, a function producing that run's stdout).
RUNS = {
    "check.txt": (2, lambda: _stdout("check", "tests/corpus", "tests/data")),
    "check.json": (2, lambda: _stdout("check", "tests/corpus", "tests/data",
                                      "--format", "json")),
    "parse.txt": (0, _parse_corpus),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_matches_golden_file(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected_code, produce = RUNS[name]
    code, out = produce()
    assert code == expected_code
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (_, produce) in RUNS.items():
        code, out = produce()
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
        print(f"{name}: exit {code}, {len(out.splitlines())} lines", file=sys.stderr)
