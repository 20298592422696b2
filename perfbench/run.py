"""Benchmark of `extc check` on seeded, generated corpora.

    python3 perfbench/run.py --workload dense_bodies --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout. `--trace 0` times the real `extc check`
CLI, one fresh interpreter at a time (a closed loop with one client), scales
each time by a calibration child run right after it, and reports the
end-to-end metrics. `--trace 1` runs the same check inside this
process with a span around each call into a layer, and reports the per-layer
metrics. Every output is checked against the generator's answer key.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric by
name with its unit, including the failure and probe counts. The exit status
is 1 when a verdict differs from the answer key or an invocation failed, and
2 when the checkout holds no extc sources. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import gen, proc, tracing  # noqa: E402

END_TO_END = {
    "check_s": "s",
    "throughput_kb_s": "KB/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "lexer.self_s": "s",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.self_s": "s",
    "parser.nodes": "count",
    "parser.nodes_per_s": "1/s",
    "signatures.self_s": "s",
    "signatures.sigs": "count",
    "checker.self_s": "s",
    "checker.clauses_checked": "count",
    "checker.defs_untyped": "count",
    "checker.static_share": "ratio",
    "diagnostics.sort_s": "s",
    "diagnostics.render_s": "s",
    "diagnostics.count": "count",
    "diagnostics.output_bytes": "bytes",
    "io.read_s": "s",
    "cli.run_s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
}

SETUP_SAMPLES = 11  # fewest imports timed per run; setup_s is their median
# Wall time of `proc.CALIBRATE` at the reference speed. Each timed check and
# import is scaled by this over the time of the calibration run right after
# it, so check_s and setup_s read as seconds at the reference speed.
REFERENCE_CALIBRATION_S = 0.5
TIMEOUT_S = 60.0  # one invocation
DEADLINE_S = 120.0  # no new invocation starts after this much of the run

_HEADER = re.compile(r"^(\S+):\d+:\d+ ([EWI]_[A-Z_]+) ", re.M)


def found_codes(output: str, fmt: str, prefix: str) -> dict[str, Counter]:
    """Diagnostic codes per corpus file in one `extc check` output."""
    found: dict[str, Counter] = defaultdict(Counter)
    if fmt == "json":
        pairs = [(d["file"], d["code"]) for d in json.loads(output)["diagnostics"]]
    else:
        pairs = _HEADER.findall(output)
    for file, code in pairs:
        found[file.removeprefix(prefix)][code] += 1
    return found


def mismatches(corpus: gen.Corpus, found: dict[str, Counter], status: int) -> int:
    """Files whose codes differ from the key, plus one if the exit status does."""
    names = set(corpus.codes) | set(found)
    wrong = sum(1 for n in names if found.get(n, Counter()) != corpus.codes.get(n, Counter()))
    return wrong + (status != corpus.exit_status)


def _line(name: str, value, unit: str, note: str = "") -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<26} {shown:>14} {unit:<6} {note}".rstrip()


# --- untraced: the real CLI in child interpreters -------------------------------

def untraced(args, corpus: gen.Corpus, work: Path) -> tuple[dict, bool, int, int]:
    with proc.Interpreter(ROOT) as interp:
        print(f"interpreter: {interp.describe()}")
        return _untraced(args, corpus, work, interp)


def _untraced(args, corpus, work, interp) -> tuple[dict, bool, int, int]:
    out, err = work / "stdout.txt", work / "stderr.txt"
    argv = ["check", "corpus", "--format", corpus.format]
    attempted = failed = wrong = 0
    started = time.monotonic()

    def invoke(code: str, code_args: list[str]) -> proc.Outcome:
        nonlocal attempted, failed
        attempted += 1
        outcome = interp.run(code, code_args, out, err, TIMEOUT_S)
        if outcome.crashed:
            failed += 1
            print(f"failed invocation (status {outcome.status}):\n{outcome.stderr}",
                  file=sys.stderr)
        return outcome

    def check() -> proc.Outcome:
        nonlocal wrong
        outcome = invoke(proc.CHECK, argv)
        if not outcome.crashed:
            found = found_codes(out.read_text(), corpus.format, "corpus/")
            wrong += mismatches(corpus, found, outcome.status)
        return outcome

    def scale() -> float:
        """Reference speed over the machine's speed right now."""
        return REFERENCE_CALIBRATION_S / invoke(proc.CALIBRATE, []).wall_s

    # Untimed warm-up: the first import writes the bytecode cache.
    invoke(proc.IMPORT, [])
    check()
    scale()
    # An import and a calibration follow each check, so all three sample the
    # same stretch of time; both timings are scaled by that calibration.
    timed: list[tuple[proc.Outcome, float]] = []
    imports: list[tuple[proc.Outcome, float]] = []
    while not timed or time.monotonic() - started < min(args.seconds, DEADLINE_S):
        outcome = check()
        imported = invoke(proc.IMPORT, [])
        k = scale()
        timed.append((outcome, k))
        imports.append((imported, k))
    while len(imports) < SETUP_SAMPLES:
        imported = invoke(proc.IMPORT, [])
        imports.append((imported, scale()))

    checks = sorted(o.wall_s * k for o, k in timed)
    check_s = statistics.median(checks)
    kb = corpus.source_bytes / 1000
    metrics = {
        "check_s": check_s,
        "throughput_kb_s": kb / check_s,
        "setup_s": statistics.median(o.wall_s * k for o, k in imports),
        "peak_rss_mb": statistics.median(o.peak_rss_mb for o, _ in timed),
    }
    # The highest percentile with at least ten samples above it, if any.
    top = f", p{100 * (len(checks) - 10) // len(checks)} {checks[len(checks) - 11]:.4f}" \
        if len(checks) > 10 else ""
    notes = {
        "check_s": f"median of {len(timed)} runs, min {checks[0]:.4f}{top}; "
                   f"unscaled median {statistics.median(o.wall_s for o, _ in timed):.4f}",
        "throughput_kb_s": f"{kb:.1f} KB of source",
        "setup_s": f"median of {len(imports)} fresh `import extc.cli`; unscaled median "
                   f"{statistics.median(o.wall_s for o, _ in imports):.4f}",
        "peak_rss_mb": "median over the timed runs",
    }
    for name, unit in END_TO_END.items():
        print(_line(name, metrics[name], unit, notes[name]))
    speeds = [k for _, k in imports]
    print(_line("speed_scale", statistics.median(speeds), "ratio",
                f"reference over measured speed, median of {len(speeds)} calibrations, "
                f"min {min(speeds):.3f} max {max(speeds):.3f}"))
    print(_line("fail_rate", failed / attempted, "ratio", f"{failed} of {attempted} invocations"))
    print(_line("verdict_mismatches", wrong, "count", "against the answer key, all runs"))
    if args.workload == "legacy_migration":
        crashes = probe(interp, work)
        print(_line("probe_crash_rate", len(crashes) / len(gen.PROBES), "ratio",
                    f"crashed: {' '.join(crashes) or 'none'}"))
    return metrics, wrong == 0 and failed == 0, attempted, failed


def probe(interp: proc.Interpreter, work: Path) -> list[str]:
    """Names of the robustness probes whose check crashes, each in its own process."""
    crashed = []
    for name, data in gen.PROBES.items():
        path = work / name
        path.write_bytes(data)
        outcome = interp.run(proc.CHECK, ["check", name], work / "probe.out",
                             work / "probe.err", TIMEOUT_S)
        if outcome.crashed:
            crashed.append(name)
    return crashed


# --- traced: the same pipeline in process, with spans ------------------------------

def traced(args, corpus: gen.Corpus, work: Path) -> tuple[dict, bool, int, int]:
    sys.path.insert(0, str(ROOT / "src"))
    # The modules the traced pipeline calls into.
    import extc.checker
    import extc.cli
    import extc.diagnostics
    import extc.envs
    import extc.lexer
    import extc.parser
    import extc.signatures
    import extc.syntax

    argv = ["check", "corpus", "--format", corpus.format]
    tracer = tracing.Tracer()
    attempted = failed = wrong = 0
    consistent = True
    cli_runs: list[float] = []
    layer_runs: list[dict] = []
    counts = None
    cli_output_bytes = None
    started = time.monotonic()

    def run_untraced() -> float:
        nonlocal wrong, cli_output_bytes
        status, output, elapsed = tracing.untraced_check(extc, argv)
        wrong += mismatches(corpus, found_codes(output, corpus.format, "corpus/"), status)
        cli_output_bytes = len(output.encode())
        return elapsed

    def run_traced() -> dict:
        nonlocal wrong, consistent, counts
        result = tracing.traced_check(extc, Path("corpus"), corpus.format, tracer)
        found: dict[str, Counter] = defaultdict(Counter)
        for d in result.diagnostics:
            found[d.file.removeprefix("corpus/")][d.code] += 1
        wrong += mismatches(corpus, found, result.status)
        if counts is not None and result.counts != counts:
            consistent = False  # the same input must give the same counts
        counts = result.counts
        # The traced copy of the pipeline must print what the CLI prints.
        consistent &= counts.output_bytes == cli_output_bytes
        self_ns = tracer.self_times(tracer.run)
        root = tracer.root(tracer.run)
        tracer.run += 1
        return {name: ns / 1e9 for name, ns in self_ns.items()} | {
            "total": (root.end_ns - root.start_ns) / 1e9}

    try:
        attempted += 2  # untimed warm-up of both paths
        run_untraced()
        run_traced()
        tracer.spans.clear()
        steps = [lambda: cli_runs.append(run_untraced()),
                 lambda: layer_runs.append(run_traced())]
        while not layer_runs or time.monotonic() - started < min(args.seconds, DEADLINE_S):
            for step in steps:
                gc.collect()
                attempted += 1
                step()
            steps.reverse()  # alternate which of the two goes first
    except Exception:  # a crash of the program under test is a failed run
        traceback.print_exc()
        failed += 1
        return {}, False, attempted, failed

    def med(name):
        return statistics.median(r.get(name, 0.0) for r in layer_runs)

    total_defs = counts.clauses_checked + counts.defs_untyped
    metrics = {
        "lexer.self_s": med("lexer"),
        "lexer.tokens": counts.tokens,
        "lexer.tokens_per_s": counts.tokens / med("lexer"),
        "parser.self_s": med("parser"),
        "parser.nodes": counts.nodes,
        "parser.nodes_per_s": counts.nodes / med("parser"),
        "signatures.self_s": med("signatures"),
        "signatures.sigs": counts.sigs,
        "checker.self_s": med("checker"),
        "checker.clauses_checked": counts.clauses_checked,
        "checker.defs_untyped": counts.defs_untyped,
        "checker.static_share": counts.clauses_checked / total_defs if total_defs else 1.0,
        "diagnostics.sort_s": med("diagnostics.sort"),
        "diagnostics.render_s": med("diagnostics.render"),
        "diagnostics.count": counts.diagnostics,
        "diagnostics.output_bytes": counts.output_bytes,
        "io.read_s": med("io"),
        "cli.run_s": statistics.median(cli_runs),
        "cli.unaccounted_s": med("cli"),
        "trace.overhead_s": med("total") - statistics.median(cli_runs),
    }
    notes = {
        "checker.self_s": "includes the second signature collection check_programs makes",
        "cli.run_s": f"untraced cli.run in process, median of {len(cli_runs)}",
        "trace.overhead_s": f"traced total {med('total'):.4f} s minus cli.run_s; "
                            "includes the extra signature collection",
    }
    for name, unit in PER_LAYER.items():
        print(_line(name, metrics[name], unit, notes.get(name, "")))
    print(_line("output_check", "ok" if consistent else "FAILED", "",
                f"traced output bytes == cli.run output bytes, {len(layer_runs)} runs"))
    print(_line("verdict_mismatches", wrong, "count", "against the answer key, all runs"))
    spans_file = ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.json"
    spans_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                      "spans": tracer.to_json()}))
    print(f"spans: {spans_file.relative_to(ROOT)}")
    return metrics, wrong == 0 and consistent, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "extc" / "cli.py").is_file():
        print(f"perfbench: no extc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "corpus").mkdir(parents=True, exist_ok=True)
    corpus = gen.WORKLOADS[args.workload](args.seed)
    corpus.write(work / "corpus")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(corpus.files)} files, {corpus.source_bytes} bytes, --format {corpus.format}")
    # Diagnostics name files relative to the working directory, so the output,
    # and the time to write it, do not depend on where the checkout lives.
    home = os.getcwd()
    os.chdir(work)
    try:
        run = traced if args.trace else untraced
        metrics, correct, attempted, failed = run(args, corpus, work)
    finally:
        os.chdir(home)
        shutil.rmtree(work)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
