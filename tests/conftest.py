from pathlib import Path

import pytest

CORPUS_DIR = Path(__file__).parent / "corpus"
DATA_DIR = Path(__file__).parent / "data"

# Error codes each corpus file must produce, in span order; files not listed
# must check cleanly (warnings and infos allowed).
EXPECTED_ERRORS = {
    "wrong_plus.ex": ["E_TYPE_MISMATCH"],
    "err_cmp_mult.ex": ["E_TYPE_MISMATCH"],
    "err_func_float.ex": ["E_TYPE_MISMATCH"],
    "err_func_string.ex": ["E_TYPE_MISMATCH"],
    "err_list_bool.ex": ["E_TYPE_MISMATCH"],
    "err_tuple_destructure.ex": ["E_PATTERN_TYPE"],
    "err_map_plus.ex": ["E_TYPE_MISMATCH"],
    "err_map_key.ex": ["E_UNKNOWN_KEY"],
    "err_nonlinear.ex": ["E_NONLINEAR_MISMATCH"],
    "err_unbound_sibling.ex": ["E_UNBOUND_VAR"],
    "err_dup_spec.ex": ["E_DUP_SPEC"],
}


def corpus_files() -> list[Path]:
    return sorted(CORPUS_DIR.glob("*.ex"))


def accepted_corpus_files() -> list[Path]:
    return [f for f in corpus_files() if f.name not in EXPECTED_ERRORS]


def strip_specs(source: str) -> str:
    """Remove every @spec line from a corpus program."""
    kept = [line for line in source.splitlines() if not line.lstrip().startswith("@spec")]
    return "\n".join(kept) + "\n"


@pytest.fixture(scope="session")
def universe():
    from oracle import default_universe

    uni = default_universe()
    uni.sub, uni.prec, uni.reach  # populate caches once per session
    return uni
