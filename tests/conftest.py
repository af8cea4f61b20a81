import io
import multiprocessing
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from virasoro import cli, core, fock, verma
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


def reset_columns():
    """Empty the builders' caches and the column tables, before and after a builder is swapped.

    Both live for the process; a table filled through a swapped builder, or through a builder
    that read one, would otherwise serve its images to the restored code.
    """
    for cached in (fock._j_basis, fock._sugawara_basis, verma._act_basis):
        cached.cache_clear()
    core._COLUMNS.clear()


@contextmanager
def swapped(module, name: str, builder):
    """module.name replaced by builder for the block, with the column tables reset around it.

    A pool worker sees the replacement only if it is forked from this process, so the "fork"
    start method is set for the block and the previous one restored after it.
    """
    method = multiprocessing.get_start_method(allow_none=True)
    reset_columns()
    multiprocessing.set_start_method("fork", force=True)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, builder)
            yield
    finally:
        multiprocessing.set_start_method(method, force=True)
        reset_columns()


def corrupted(module, name: str, defects: dict):
    """swapped(module, name, build), where build is the builder plus defects[index, start].

    build(index, start, *parameters) is the original builder's image, with the vector
    defects[index, start] added where that key is present.  It is memoized like the builder
    it replaces, so a recursive builder's calls and another builder's reads stay memoized.
    """
    original = getattr(module, name)

    @lru_cache(maxsize=None)
    def build(index, start, *parameters):
        out = original(index, start, *parameters)
        return out + defects[index, start] if (index, start) in defects else out

    return swapped(module, name, build)


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
