"""The CLI byte contract: every invocation of ``cli_cases`` against its file under ``tests/golden/``.

Each invocation runs in-process through ``tiltmat.cli.main`` in a directory
holding the seeded input files, and its (exit code, stdout, stderr) must
equal the recorded triple byte for byte.  The recorded bytes are those of
numpy 2.4.6 on this project's OpenBLAS build; another numpy or BLAS may move
last digits, and rewriting the files for it is a recorded decision.  The
files are written only by ``python3 tools/cli_diff.py --regenerate src``.
"""

import pytest

from cli_cases import (
    describe_difference,
    golden_name,
    invocations,
    read_golden,
    run_in_process,
    write_inputs,
)

INVOCATIONS = invocations()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_inputs")
    write_inputs(str(directory))
    return str(directory)


def test_golden_file_names_are_distinct():
    assert len({golden_name(args) for args in INVOCATIONS}) == len(INVOCATIONS)


@pytest.mark.parametrize("args", INVOCATIONS, ids=[golden_name(a)[:-5] for a in INVOCATIONS])
def test_cli_output_matches_golden(args, inputs):
    expected = read_golden(args)
    actual = run_in_process(args, inputs)
    if actual != expected:
        pytest.fail(
            "tiltmat " + " ".join(args) + " differs from its golden file\n"
            + describe_difference(expected, actual),
            pytrace=False,
        )
