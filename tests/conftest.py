"""Fixtures shared by the test modules."""

import tracemalloc

import pytest

from etkbound import badic


def _block_sizes_agree(fn, *args):
    """fn(*args) with badic's block size and with blocks of one row (one box,
    one candidate, one point line); the two must agree in full, or raise the
    same error, which is then raised again."""
    outcomes = []
    for size in (badic._BLOCK_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(badic, "_BLOCK_BYTES", size)
            try:
                outcomes.append((fn(*args), None))
            except Exception as exc:
                outcomes.append((None, exc))
    (result, error), (other, other_error) = outcomes
    assert repr(error) == repr(other_error)
    if error is not None:
        raise error
    assert result == other
    return result


def _peak_mib(fn, *args, **kwargs):
    """Tracemalloc peak, in MiB, of one call fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def at_both_block_sizes():
    return _block_sizes_agree


@pytest.fixture(scope="session")
def peak_mib():
    return _peak_mib
