"""The benchmark command, its output checks and its tracer."""
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import gen, run, tracing  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace,section", [
    ("legacy_migration", "0", "end_to_end"),
    ("dense_bodies", "1", "per_layer"),
])
def test_command_prints_every_metric_with_its_unit(workload, trace, section):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *report, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    names = [line.split()[0] for line in report if line.startswith("  ")]
    extra = (["speed_scale", "fail_rate", "verdict_mismatches", "probe_crash_rate"]
             if trace == "0"
             else ["output_check", "verdict_mismatches"])
    assert [m["name"] for m in declared] + extra == names


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "dense_bodies", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_a_wrong_verdict_is_counted():
    corpus = gen.Corpus({}, {"a.ex": Counter({"I_UNTYPED_DEF": 2}),
                             "b.ex": Counter({"E_DUP_SPEC": 1})}, "text")
    text = ("corpus/a.ex:1:3 I_UNTYPED_DEF m has no @spec\n  1 | def m\n"
            "corpus/a.ex:2:3 I_UNTYPED_DEF m has no @spec\n"
            "corpus/b.ex:4:1 E_DUP_SPEC duplicate\n")
    found = run.found_codes(text, "text", "corpus/")
    assert run.mismatches(corpus, found, 1) == 0
    assert run.mismatches(corpus, found, 0) == 1
    found["b.ex"]["E_TYPE_MISMATCH"] += 1
    assert run.mismatches(corpus, found, 1) == 1
    as_json = json.dumps({"diagnostics": [{"file": "corpus/a.ex", "code": "I_UNTYPED_DEF"}]})
    assert run.mismatches(corpus, run.found_codes(as_json, "json", "corpus/"), 1) == 2


def test_self_time_excludes_covered_child_time():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("cli", 0, 100, None, 0),
        tracing.Span("lexer", 10, 30, 0, 0),
        tracing.Span("parser", 30, 70, 0, 0),
        tracing.Span("io", 40, 50, 2, 0),
        tracing.Span("cli", 0, 5, None, 1),
    ]
    assert tracer.self_times(0) == {"cli": 40, "lexer": 20, "parser": 30, "io": 10}
    # Self times of nested spans add up to the root span's length.
    assert sum(tracer.self_times(0).values()) == 100
    assert tracer.root(1).end_ns == 5
