"""The traced run: spans around the benchmark's own calls into each extc layer.

`traced_check` repeats what `extc.cli` does for `extc check` (read, lex and
parse each file, check, sort, render, print) with the same public functions,
and records a span around each call. Spans are kept in memory and written
out when the run ends. Tracing inside extc itself is not used.

One difference from the CLI: the traced run calls `signatures.collect_all`
on its own, to time signature collection; `checker.check_programs` then
collects them again, so `checker` self time includes a second collection,
and the traced total includes the first one.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index of the enclosing span in `Tracer.spans`
    run: int


class Tracer:
    """Collects spans; nesting follows the `with` blocks."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.run = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter_ns(), 0, parent, self.run)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._open.pop()

    def self_times(self, run: int) -> dict[str, int]:
        """Nanoseconds per span name in one run: each span's length minus the
        part of it that its children cover."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s.run == run]
        children: dict[int, list[Span]] = {}
        for _, s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: Counter = Counter()
        for i, s in spans:
            covered, reach = 0, s.start_ns
            for child in sorted(children.get(i, ()), key=lambda c: c.start_ns):
                lo, hi = max(child.start_ns, reach), min(child.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[s.name] += (s.end_ns - s.start_ns) - covered
        return totals

    def root(self, run: int) -> Span:
        return next(s for s in self.spans if s.run == run and s.parent is None)

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(s) for s in self.spans]


@dataclass
class Counts:
    """Work counts of one traced run."""

    tokens: int = 0
    nodes: int = 0
    sigs: int = 0
    clauses_checked: int = 0
    defs_untyped: int = 0
    diagnostics: int = 0
    output_bytes: int = 0


@dataclass
class Result:
    status: int
    diagnostics: list  # extc Diagnostic objects
    counts: Counts


def traced_check(extc, directory: Path, fmt: str, tracer: Tracer) -> Result:
    """`extc check <directory> --format <fmt>`, traced; `extc` holds the modules."""
    counts = Counts()
    sink = io.StringIO()
    with tracer.span("cli"):
        files = sorted(directory.rglob("*.ex"))
        programs, diags, sources = [], [], {}
        for path in files:
            name = str(path)
            with tracer.span("io"):
                text = path.read_text(encoding="utf-8")
            sources[name] = text
            try:
                with tracer.span("lexer"):
                    tokens = extc.lexer.tokenize(text)
                counts.tokens += len(tokens)
                with tracer.span("parser"):
                    programs.append(extc.parser.parse_program(tokens, path=name))
            except extc.lexer.LexError as err:
                diags.append(extc.diagnostics.Diagnostic(
                    extc.diagnostics.E_LEX, err.message, err.span, file=name))
            except extc.parser.ParseError as err:
                diags.append(extc.diagnostics.Diagnostic(
                    extc.diagnostics.E_PARSE, err.message, err.span, file=name))
        with tracer.span("signatures"):
            sigs, _ = extc.signatures.collect_all(programs)
        with tracer.span("checker"):
            diags.extend(extc.checker.check_programs(programs))
        with tracer.span("diagnostics.sort"):
            diags = extc.diagnostics.sort_diagnostics(diags)
        with tracer.span("diagnostics.render"):
            if fmt == "json":
                output = extc.diagnostics.render_json(diags)
            else:
                output = extc.diagnostics.render_all_text(diags, sources, color=False)
        if fmt == "json" or diags:
            print(output, file=sink)
        codes = [d.code for d in diags]
        if "E_PARSE" in codes or "E_LEX" in codes:
            status = 2
        else:
            status = 1 if extc.diagnostics.count_by_severity(diags)[0] else 0
    counts.sigs = len(sigs)
    counts.nodes = sum(_count_nodes(extc.syntax.Node, p) for p in programs)
    for program in programs:
        checked, untyped = _clauses(extc, program.items, (), sigs)
        counts.clauses_checked += checked
        counts.defs_untyped += untyped
    counts.diagnostics = len(diags)
    counts.output_bytes = len(sink.getvalue().encode())
    return Result(status, diags, counts)


def untraced_check(extc, argv: list[str]) -> tuple[int, str, float]:
    """`extc.cli.run(argv)` in this process: status, stdout and seconds."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        status = extc.cli.run(argv)
        elapsed = time.perf_counter() - start
    return status, sink.getvalue(), elapsed


def _count_nodes(node_type, root) -> int:
    count, stack = 0, [root]
    while stack:
        item = stack.pop()
        if isinstance(item, node_type):
            count += 1
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
    return count


def _clauses(extc, items, prefix: tuple, sigs) -> tuple[int, int]:
    """`def` clauses with and without a `@spec`, as the checker finds them."""
    checked = untyped = 0
    for item in items:
        if isinstance(item, extc.syntax.ModuleDef):
            c, u = _clauses(extc, item.body, (*prefix, item.name), sigs)
            checked, untyped = checked + c, untyped + u
        elif isinstance(item, extc.syntax.FunctionDef):
            name = extc.envs.qualify(prefix, item.name)
            if sigs.lookup(name, len(item.params)) is None:
                untyped += 1
            else:
                checked += 1
    return checked, untyped
