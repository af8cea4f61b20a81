import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from virasoro import cli
from virasoro.core import FreeVector

SRC = Path(__file__).parent.parent / "src"
DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

scalars = st.fractions(min_value=-8, max_value=8, max_denominator=12)
indices = st.integers(min_value=-6, max_value=6)


class CliResult(NamedTuple):
    exit_code: int
    output: str


def invoke(*args, env=None) -> CliResult:
    """`vira ARGS` run in this process, with env set over os.environ for the call.

    stdout and stderr are captured together as output, and a SystemExit
    becomes the exit code.
    """
    output = io.StringIO()
    exit_code = 0
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(output), \
            redirect_stderr(output):
        try:
            cli.main(list(args), prog_name="vira")
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code
    return CliResult(exit_code, output.getvalue())


@st.composite
def free_vectors(draw, max_terms=4, index_bound=6):
    pairs = draw(st.lists(
        st.tuples(st.integers(-index_bound, index_bound), scalars),
        max_size=max_terms))
    return FreeVector(pairs)


@st.composite
def one_cochain_values(draw, window=6, max_terms=4):
    pairs = draw(st.lists(
        st.tuples(st.integers(-window, window), scalars), max_size=max_terms))
    return dict(pairs)


partitions = st.lists(st.integers(min_value=1, max_value=5), max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
