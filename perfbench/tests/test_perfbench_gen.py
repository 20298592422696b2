"""The corpus generator: deterministic, and its answer key agrees with extc."""
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from extc.cli import run as cli_run  # noqa: E402
from perfbench import gen  # noqa: E402
from perfbench.run import found_codes  # noqa: E402


def _corpus_expectations() -> dict:
    spec = importlib.util.spec_from_file_location(
        "extc_corpus_expectations", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.EXPECTED_ERRORS


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_same_seed_same_bytes(workload):
    make = gen.WORKLOADS[workload]
    first, again, other = make(7), make(7), make(8)
    assert first.files == again.files
    assert first.codes == again.codes
    assert first.files != other.files


def test_templates_report_the_codes_of_their_corpus_listings():
    expected = _corpus_expectations()
    for template in gen.ERROR_TEMPLATES:
        assert expected[template.corpus] == [template.code], template.corpus


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_answer_key_agrees_with_extc(workload, tmp_path, capsys):
    corpus = gen.WORKLOADS[workload](3)
    corpus.write(tmp_path)
    status = cli_run(["check", str(tmp_path), "--format", "json"])
    found = found_codes(capsys.readouterr().out, "json", f"{tmp_path}/")
    assert {n: c for n, c in found.items() if c} == {n: c for n, c in corpus.codes.items() if c}
    assert status == corpus.exit_status


def test_workload_sizes_do_not_depend_on_the_seed():
    for make in gen.WORKLOADS.values():
        sizes = [make(seed).source_bytes for seed in (1, 2, 3)]
        assert max(sizes) < 1.05 * min(sizes)
