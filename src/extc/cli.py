"""Command-line interface.

`extc check PATH... [--format text|json] [--strict-warnings] [--dump-sigs]
[--no-color]` or `extc parse PATH`; `-h`/`--help` at either level,
`--format=X`, and `--` ending the options. The paths stand together: a word
after an option that follows them is unrecognized. Help and usage errors are
argparse's at 80 columns, but no option is abbreviated, and words such as
`-1` and `--dump-sigs=x` are unknown options (`tests/reference_cli.py`).

Exit codes: 0 clean (warnings allowed unless --strict-warnings), 1 type
errors, 2 parse/lex errors or output that cannot be written, 3 usage errors.
`run` writes all output and flushes both standard streams. A reader that
closes the pipe early ends the output quietly, with the status the verdict
gives. A standard stream closed at start takes no output: writing to it
fails, and the other stream still gets its own.

`extc check` splits several files between processes when it has `os.fork`,
more than one CPU and at least twice `BATCH_MIN_BYTES` of input. The files
go into one batch per CPU, but no more batches than `BATCH_MIN_BYTES` go
into the input, dealt by size, each batch in command-line order. A worker
is forked for each batch but one before any file is read: `_check_all` is
the parent's side, and `_work` a worker's whole life. Each process
lexes, parses and checks only its own batch. In between, the processes
swap the declarations of their files (`signatures.declarations`), which
are `marshal` data as they are, and `collect` unpacks every file's into
the same signatures in each process, in command-line order, with the
`E_DUP_SPEC` and `W_SPEC_NO_DEF` of its own files. Each process then
sorts and renders the diagnostics of its own files, as text or JSON, in
one block per file, with the colour this process chose before it forked.
A worker sends `(file, block, codes)` for each of its files, and exits
without writing to a standard stream; only `marshal` data crosses a pipe,
and no file's text. This process renders its blocks before it reads the
workers', then joins all blocks in file order: every diagnostic of a file
comes from the process that loaded it, so that is the order of
`sort_diagnostics`, and the output does not depend on the split. The codes
give the summary and the exit status. A check in one process is a split
with one batch, whose swap hands its declarations back.

Process `k` of a split into `n` (the parent is 0) runs on `mask[k::n]` of
the parent's sorted CPU mask, which the parent takes back at the end: a
kernel may keep a forked process on its parent's CPU while another idles.
"""
from __future__ import annotations

import errno
import gc
import marshal
import os
import sys

from .checker import check_programs
from .diagnostics import (
    Diagnostic, E_LEX, E_PARSE, Source, Span, escaped, json_document, json_entry, render_text,
    sort_diagnostics,
)
from .lexer import LexError
from .parser import RECURSION_LIMIT, ParseError, parse_program
from .signatures import collect, declarations
from .syntax import Program, dump

# Fewest bytes of input per process in a split check: a check of N bytes
# uses at most N // BATCH_MIN_BYTES processes. Measured on 2 CPUs, in a
# session where the unpinned split ran in parallel, in fresh processes,
# 21-31 alternating pairs each, split in two against one: it lost on files
# of 8 and 12 KB in all, was mixed at 17 KB, and won 27 and 28 pairs in 31,
# by 4-6 ms, at 27 and 33 KB; it lost 1.4 ms on `tests/corpus` (2.2 KB in 34
# files) and 2.9 ms on perfbench's probes. More processes than CPUs cost
# time (ROADMAP, "Where the time goes"), so the CPUs bound the count too.
BATCH_MIN_BYTES = 12_000

# Where a container reads its cgroup's CPU quota: v2, then v1.
CPU_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                   ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


# `--help` of each program, as argparse wrapped it at 80 columns. Its usage
# runs to the first blank line, and heads each usage error.
HELP = {
    "extc": """usage: extc [-h] {check,parse} ...

Gradual type checker for a core Elixir fragment

positional arguments:
  {check,parse}
    check        type-check source files
    parse        parse one file and dump its AST

options:
  -h, --help     show this help message and exit""",
    "extc check": """usage: extc check [-h] [--format {text,json}] [--strict-warnings]
                  [--dump-sigs] [--no-color]
                  paths [paths ...]

positional arguments:
  paths                 source files or directories

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --strict-warnings     exit with status 1 when warnings are present
  --dump-sigs           print the collected function signatures
  --no-color""",
    "extc parse": """usage: extc parse [-h] path

positional arguments:
  path

options:
  -h, --help  show this help message and exit""",
}
INVALID_CHOICE = "argument {}: invalid choice: {!r} (choose from {})"
NO_VALUE = "argument --format: expected one argument"
REQUIRED = "the following arguments are required: {}"
UNRECOGNIZED = "unrecognized arguments: {}"


def _read_args(argv: list[str]) -> dict | tuple[int, list]:
    """The fields of command line `argv`, or the status and output of its
    help or usage error (see the module docstring)."""
    prog, taken, extras = "extc", [], []  # extras: the words that nothing takes
    fields = {"format": "text", "strict_warnings": False, "dump_sigs": False, "no_color": False}
    closed = ended = False  # no more positionals join the others; `--` came
    words = iter(argv)
    for word in words:
        if ended or word[:1] != "-" or word == "-":
            if prog == "extc":
                prog = "extc " + word
                if prog not in HELP:
                    return _usage_error("extc", INVALID_CHOICE, "command", word, "'check', 'parse'")
            else:
                closed = closed or prog == "extc parse" and bool(taken)  # it takes one path
                (extras if closed else taken).append(word)
        elif word == "--":
            ended = True
            if closed:
                extras.append(word)
        elif word in ("-h", "--help"):
            return 0, [(sys.stdout, HELP[prog])]
        else:
            closed = bool(taken)
            name, given, value = word.partition("=")
            if prog == "extc check" and word in ("--strict-warnings", "--dump-sigs", "--no-color"):
                fields[word[2:].replace("-", "_")] = True
            elif prog == "extc check" and name == "--format":
                if not given:
                    value = next(words, "--")  # an option, or no word at all, is no value
                    if value[:1] == "-" and value != "-":
                        return _usage_error(prog, NO_VALUE)
                if value not in ("text", "json"):
                    return _usage_error(prog, INVALID_CHOICE, "--format", value, "'text', 'json'")
                fields["format"] = value
            else:
                extras.append(word)
    if not taken:
        return _usage_error(prog, REQUIRED, {"extc": "command", "extc check": "paths"}.get(prog, "path"))
    if extras:
        return _usage_error("extc", UNRECOGNIZED, " ".join(extras))
    if prog == "extc parse":
        return {"command": "parse", "path": taken[0]}
    return {"command": "check", "paths": taken, **fields}


def _usage_error(prog: str, message: str, *values) -> tuple[int, list]:
    usage = HELP[prog].split("\n\n")[0]
    return 3, [(sys.stderr, f"{usage}\n{prog}: error: {message.format(*values)}")]


def _spell(raw: str) -> str:
    """`raw` as `str(pathlib.Path(raw))` spells it: without empty or `.`
    components, and `.` for none; two leading slashes stay two."""
    rel = raw.lstrip("/")
    root = "/" * (len(raw) - len(rel))
    return (root if len(root) == 2 else root[:1]) + "/".join(
        part for part in rel.split("/") if part not in ("", ".")) or "."


def _ex_files(top: str) -> list[str]:
    """The files named `*.ex` under directory `top`, as `sorted(Path(top).rglob(
    "*.ex"))` finds them: ordered by path components, hidden ones included,
    symlinked directories not descended, and entries that are not files dropped."""
    prefix = "" if top == "." else top if top.endswith("/") else top + "/"
    found = []
    stack = [((), top)]  # not `os.walk`, which recurses once per level before Python 3.12
    while stack:
        parts, directory = stack.pop()
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    child = (*parts, entry.name)
                    if entry.name.endswith(".ex"):
                        found.append((child, prefix + "/".join(child)))
                    if entry.is_dir(follow_symlinks=False):
                        stack.append((child, entry.path))
        except OSError:  # rglob skips what it cannot list
            pass
    return [path for _, path in sorted(found) if os.path.isfile(path)]


def _gather_files(paths: list[str]) -> list[str] | str:
    """The files `paths` name, each once: a file named again, or also reached
    through its directory, keeps its first place and spelling."""
    files: dict[str, str] = {}  # resolved path -> path as first seen
    for raw in paths:
        p = _spell(raw)
        if os.path.isdir(p):
            found = _ex_files(p)
        elif os.path.isfile(p):
            found = [p]
        else:
            return raw
        for f in found:
            files.setdefault(os.path.realpath(f), f)
    return list(files.values())


def _newlines(text: str) -> str:
    """Universal newlines, as reading in text mode gives."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _load(name: str) -> Program | Diagnostic:
    """Read and parse one file: its program, or the E_LEX/E_PARSE diagnostic
    that stopped it, or E_LEX at offset 0 when the file cannot be read. Every
    span points into the file's text, in which bytes that are not UTF-8 read
    as U+FFFD."""
    try:
        with open(name, "rb") as file:
            data = file.read()
    except OSError as err:
        span = Span(0, 0, Source(""))
        return Diagnostic(E_LEX, f"cannot read file: {err.strerror or err}", span, file=name)
    try:
        text = _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        offset = len(_newlines(data[:err.start].decode("utf-8")))
        span = Span(offset, offset + 1, Source(_newlines(data.decode("utf-8", "replace"))))
        return Diagnostic(E_LEX, "file is not valid UTF-8", span, file=name)
    try:
        return parse_program(text, path=name)
    except (LexError, ParseError) as err:
        return Diagnostic(err.code, err.message, err.span, file=name)


def run(argv: list[str] | None = None) -> int:
    """Run the command line `argv`, write its output, flush both standard
    streams, and return the exit status."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), RECURSION_LIMIT))
    args = _read_args(sys.argv[1:] if argv is None else argv)
    if isinstance(args, tuple):  # help or a usage error
        status, output = args
    else:
        status, output = (_run_check if args["command"] == "check" else _run_parse)(args)
    failed = []  # streams that take no more output
    for stream, text in [*output, (sys.stdout, None), (sys.stderr, None)]:
        if stream not in failed:
            try:
                _write(stream, text)
            except OSError as err:
                failed.append(stream)
                status = _write_failed(err, status, stream)
    return status


def _write(stream, text: str | None) -> None:
    """Print `text` to `stream`, each character its encoding lacks as a
    backslash escape, or flush it when `text` is None. A stream that was
    closed at start is None: writing to it fails as writing to a closed
    descriptor does, and it has nothing to flush."""
    if text is None:
        if stream is not None:
            stream.flush()
    elif stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    else:
        try:
            print(text, file=stream)
        except UnicodeEncodeError:  # raised before any of `text` is written
            print(escaped(text, stream), file=stream)


def _write_failed(err: OSError, status: int, stream) -> int:
    """The exit status once writing to `stream` failed: the verdict's if the
    reader closed the pipe, else 2, with one line on stderr if stderr takes
    it. The stream points at `os.devnull` from then on, so what is left to
    flush fails no more (the SIGPIPE note in the `signal` docs)."""
    try:
        fd = stream.fileno()
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), fd)
    except (AttributeError, OSError):  # None, or a stream with no descriptor
        pass
    if isinstance(err, BrokenPipeError):
        return status
    try:
        _write(sys.stderr, f"extc: error: cannot write output: {err.strerror or err}")
    except OSError:  # stderr may be the stream that failed
        pass
    return 2


def _run_check(args) -> tuple[int, list]:
    """The status of `extc check` and its output, as (stream, text) pairs to print."""
    files = _gather_files(args["paths"])
    if isinstance(files, str):
        return 3, [(sys.stderr, f"extc: error: no such file or directory: {files}")]

    if args["format"] == "json":
        render = json_entry, ",\n"
    else:
        color = not args["no_color"] and sys.stdout is not None and sys.stdout.isatty()
        render = (lambda d: render_text(d, color, sys.stdout)), "\n"
    sigs, blocks = _check_all(files, render)
    blocks.sort()  # by file: all diagnostics of a file come from the process that loaded it
    rendered = render[1].join(block for _, block, _ in blocks)
    codes = [code for _, _, file_codes in blocks for code in file_codes]
    errors, warnings = (sum(code[0] == severity for code in codes) for severity in "EW")

    output = []
    if args["dump_sigs"] and sigs:
        stream = sys.stderr if args["format"] == "json" else sys.stdout
        output.append((stream, "\n".join(f"{name}/{arity} :: {fn_type}"
                                          for name, arity, fn_type in sigs.entries())))
    if args["format"] == "json":
        output.append((sys.stdout, json_document(rendered, errors, warnings)))
    elif blocks:
        output.append((sys.stdout, rendered))

    if E_PARSE in codes or E_LEX in codes:
        return 2, output
    return (1 if errors or args["strict_warnings"] and warnings else 0), output


def _check(files: list[str], mine, swap):
    """Load the files numbered `mine`, in order, and check them against the
    signatures of all `files`: the signatures, and the diagnostics of `mine`.
    `swap`, given the declarations (`marshal` data, which `collect` unpacks)
    of `mine` by number, returns those of every file that parsed."""
    programs, diags = {}, []
    for i in mine:
        loaded = _load(files[i])
        if isinstance(loaded, Diagnostic):
            diags.append(loaded)
        else:
            programs[i] = loaded
    declared = swap({i: declarations(program) for i, program in programs.items()})
    sigs, sig_diags = collect([(programs.get(i), declared[i]) for i in sorted(declared)])
    return sigs, diags + check_programs(list(programs.values()), (sigs, sig_diags))


def _blocks(diags: list[Diagnostic], render) -> list[tuple[str, str, list[str]]]:
    """`diags` sorted and rendered, `(file, block, codes)` for each file they
    are in. `render` is a pair: a function that renders one diagnostic, and
    the text that joins two rendered ones, in a block and between blocks."""
    by_file: dict[str, list[Diagnostic]] = {}
    for d in sort_diagnostics(diags):
        by_file.setdefault(d.file, []).append(d)
    one, joiner = render
    return [(file, joiner.join(map(one, found)), [d.code for d in found])
            for file, found in by_file.items()]


def _check_all(files: list[str], render):
    """The signatures, and `_blocks` of the diagnostics, of every file: checked
    here alone, or split into batches of which this process, the parent,
    checks the lightest and a worker forked into `_work` each other. Each
    process renders its own files' diagnostics."""
    batches = _batches(files)
    mask = sorted(os.sched_getaffinity(0)) if batches[1:] else []  # the CPUs to share
    workers = []  # (pid, reader, writer): the pid and this side's pipe ends
    try:
        _pin(mask[::len(batches)])
        for k, batch in enumerate(batches[1:], 1):
            pipes = []
            try:
                pipes += os.pipe()  # from the worker
                pipes += os.pipe()  # to the worker
                pid = os.fork()
            except OSError:  # no process or pipe to spare: check the batch here
                for fd in pipes:
                    os.close(fd)
                batches[0] = sorted(batches[0] + batch)
                continue
            if pid == 0:
                _work(files, batch, render, workers, pipes, mask[k::len(batches)])  # never returns
            os.close(pipes[1])
            os.close(pipes[2])
            workers.append((pid, os.fdopen(pipes[0], "rb"), os.fdopen(pipes[3], "wb")))

        def swap(declared):
            for _, reader, _ in workers:
                declared.update(_receive(reader))
            for _, _, writer in workers:
                _send(writer, declared)
            return declared

        sigs, diags = _check(files, batches[0], swap)
        blocks = _blocks(diags, render)  # while the workers render theirs
        for _, reader, _ in workers:
            blocks += _receive(reader)
        return sigs, blocks
    finally:
        for _, reader, writer in workers:
            _close(reader, writer)
        for pid, _, _ in workers:
            os.waitpid(pid, 0)
        _pin(mask)


def _batches(files: list[str]) -> list[list[int]]:
    """The numbers of `files`, split into batches, each in order and the
    lightest first: largest file first, each file goes to the batch with the
    fewest bytes so far. One batch per CPU, but no more batches than files,
    nor than `BATCH_MIN_BYTES` go into the input. One batch when there is no
    `os.fork`, and when another thread runs, which a forked worker would
    lack, with any lock it holds."""
    everyone = list(range(len(files)))
    threading = sys.modules.get("threading")  # no thread runs unless it is loaded
    if (len(files) < 2 or not hasattr(os, "fork")
            or threading and threading.active_count() > 1):
        return [everyone]
    sizes = [_size(name) for name in files]
    count = min(len(files), sum(sizes) // BATCH_MIN_BYTES)
    if count > 1:
        count = min(count, _cpus())
    if count < 2:
        return [everyone]
    batches = [[] for _ in range(count)]
    loads = [0] * count
    for i in sorted(everyone, key=sizes.__getitem__, reverse=True):
        lightest = loads.index(min(loads))
        batches[lightest].append(i)
        loads[lightest] += sizes[i]
    return [sorted(batch) for _, batch in sorted(zip(loads, batches))]


def _cpus() -> int:
    """The CPUs this process may run on, and no more than its cgroup's CPU
    quota, rounded up, where a container finds it: `quota period` in the one
    file of cgroup v2, `quota` and `period` in two files of v1."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    for names in CPU_QUOTA_FILES:
        try:
            quota, period = map(int, " ".join(_read(name) for name in names).split())
        except (OSError, ValueError):  # no such cgroup, or no quota: "max", "-1"
            continue
        if quota > 0 and period > 0:
            cpus = min(cpus, -(-quota // period))
    return cpus


def _read(name: str) -> str:
    with open(name) as file:
        return file.read()


def _size(name: str) -> int:
    try:
        return os.stat(name).st_size
    except OSError:  # `_load` reports it
        return 0


def _work(files: list[str], batch: list[int], render, workers: list, pipes: list, cpus: list) -> None:
    """A worker's whole life after the fork: `_pin` to `cpus`, close the parent's ends of
    `pipes` and of earlier `workers`' pipes, check `batch`, and send its declarations
    and then the `_blocks` of its diagnostics, or the traceback of what stopped it.
    It ends with `os._exit`, writes nothing to the standard streams, and
    leaves their buffers to the parent."""
    status = 1
    try:
        _pin(cpus)
        for _, *ends in workers:  # the parent's ends of earlier workers' pipes
            _close(*ends)
        os.close(pipes[0])
        os.close(pipes[3])
        reader, writer = os.fdopen(pipes[2], "rb"), os.fdopen(pipes[1], "wb")

        def swap(declared):
            _send(writer, declared)
            return _receive(reader)

        _send(writer, _blocks(_check(files, batch, swap)[1], render))
        status = 0
    except BaseException as err:  # reported, for the parent to raise
        _send(writer, _traceback(err))  # should this fail too, `finally` still ends the worker
    finally:
        os._exit(status)


def _pin(cpus: list[int]) -> None:
    """Run this process on `cpus`, if any: `mask[k::n]` for process `k` of `n`, as a kernel may keep
    a forked process on its parent's CPU while another idles. If the call fails, it stays put."""
    try:
        if cpus:  # a check in one process makes no call
            os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no such call, or a CPU missing or not allowed
        pass


def _close(*streams) -> None:
    for stream in streams:
        try:
            stream.close()
        except OSError:  # a writer whose reader has gone
            pass


def _send(stream, value) -> None:
    """Write `value` to `stream` with `marshal`, after its length."""
    # The length lets `_receive` take the value in one `read`: `marshal.load` on a pipe reads
    # item by item through `readinto`, 1.3 ms against 0.2 ms for a 14 KB dict on 2 vCPUs.
    data = marshal.dumps(value)
    stream.write(len(data).to_bytes(8, "little"))
    stream.write(data)
    stream.flush()


def _receive(stream):
    """The next value `_send` wrote to the other end of `stream`. A worker that
    failed sends its traceback instead, which raises here."""
    size = int.from_bytes(stream.read(8), "little")
    data = stream.read(size)
    if not size or len(data) < size:
        raise EOFError("a check worker ended without an answer")
    value = marshal.loads(data)
    if isinstance(value, str):
        raise RuntimeError(f"a check worker failed:\n{value}")
    return value


def _traceback(err: BaseException) -> str:
    """`err` and the frames it passed through, as a traceback prints them,
    without the `traceback` module, which start-up would have to import."""
    lines = ["Traceback (most recent call last):"]
    tb = err.__traceback__
    while tb is not None:
        code = tb.tb_frame.f_code
        lines.append(f'  File "{code.co_filename}", line {tb.tb_lineno}, in {code.co_name}')
        tb = tb.tb_next
    return "\n".join([*lines, f"{type(err).__name__}: {err}"])


def _run_parse(args) -> tuple[int, list]:
    path = _spell(args["path"])
    if not os.path.isfile(path):
        return 3, [(sys.stderr, f"extc: error: no such file: {args['path']}")]
    parsed = _load(path)
    if isinstance(parsed, Diagnostic):
        return 2, [(sys.stderr, render_text(parsed, False, sys.stderr))]
    return 0, [(sys.stdout, dump(parsed))]


def main() -> None:
    """The `extc` console entry point: `run` the command line, which writes
    and flushes all output, then exit with its status.

    A check builds trees (tokens, AST nodes, types, diagnostics), not
    reference cycles, so the cyclic collector would walk every live object
    of the run and free nothing: the collector is off for the whole command.
    `tests/test_cli.py::TestCycleGate` keeps that true; it fails when a
    check leaves cyclic garbage that grows with its input. With nothing left
    to flush, the process ends with `os._exit`, which skips the final
    collection and freeing the heap one object at a time. `run` itself
    leaves the collector as it found it, for callers in a longer process.
    """
    gc.disable()
    os._exit(run())


if __name__ == "__main__":
    main()
