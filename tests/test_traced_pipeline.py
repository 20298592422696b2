"""perfbench's traced copy of `extc check` agrees with `cli.run`, as text and as JSON."""
import json
import sys
from pathlib import Path

import pytest

from conftest import CORPUS_DIR, DATA_DIR

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

# The modules the traced pipeline calls into, as perfbench imports them.
import extc.checker  # noqa: E402,F401
import extc.diagnostics  # noqa: E402,F401
import extc.envs  # noqa: E402,F401
import extc.lexer  # noqa: E402,F401
import extc.parser  # noqa: E402,F401
import extc.signatures  # noqa: E402,F401
import extc.syntax  # noqa: E402,F401
from extc.cli import run  # noqa: E402
from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("directory", [CORPUS_DIR, DATA_DIR], ids=["corpus", "data"])
def test_traced_check_matches_run(directory, fmt, capsys):
    result = tracing.traced_check(extc, directory, fmt, tracing.Tracer())
    status = run(["check", str(directory), "--format", fmt])
    out = capsys.readouterr().out
    assert (result.status, result.counts.output_bytes) == (status, len(out.encode()))

    run(["check", str(directory), "--format", "json"])
    found = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [(d.file, d.code, d.span.source.position(d.span.start))
            for d in result.diagnostics] == [(d["file"], d["code"], (d["line"], d["col"]))
                                             for d in found]
    assert result.diagnostics  # both directories report something
