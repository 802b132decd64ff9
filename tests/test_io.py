"""CSV number formatting: the numpy kernel gives the bytes of `'%.17e' % v`.

A value the kernel cannot round with certainty goes to the `%` formatter
alone, into its own field; every value must come out byte for byte as `%`
writes it.  The kernel must not warn either (log10 of a zero, an overflow
in Dekker's split, a cast of NaN), since CI runs the suite with
RuntimeWarning as an error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpassage import io
from qpassage.io import _CHUNK, _encode, _round, write_csv

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TIE = (2 ** 53 - 1) / 8  # 1125899906842623.875: its 19th significant digit is an exact 5


def _fast(values):
    """`_encode` of `values`, each followed by LF."""
    values = np.asarray(values, dtype=np.float64)
    return _encode(values, np.full(len(values), ord("\n"), np.uint8))


def _refused(values):
    """`_round`'s mask of the values it sends to `%`."""
    return _round(np.asarray(values, dtype=np.float64))[2]


def _check(values):
    """Each value alone comes out as `%` writes it, and all of them at once
    give the joined bytes."""
    alone = [_fast([v]) for v in values]
    for v, got in zip(values, alone):
        assert got == ("%.17e\n" % v).encode(), v
    assert _fast(values) == b"".join(alone)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=16))
def test_any_bit_pattern_is_formatted_as_percent_e_or_sent_to_percent(bits):
    _check(np.array(bits, dtype=np.uint64).view(np.float64).tolist())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=16))
@example([-0.0])
@example([5e-324])
@example([2.2250738585072014e-308])
@example([TIE])
@example([0.9999999999999999])
@example([1e22])
@example([1e23])
@example([9.999999999999999e22])
@example([1e300])
@example([1e-243])  # log10 reads -243, the value is 9.99999999999999995e-244
def test_any_float_is_formatted_as_percent_e_or_sent_to_percent(values):
    _check(values)


@pytest.mark.parametrize("value, fast", [
    (0.0, True), (-0.0, True), (1.0, True), (-3.5e-200, True),
    (TIE, False), (1e300, False), (5e-324, False), (np.nan, False), (np.inf, False),
    (-np.inf, False)])
def test_zeros_stay_on_the_fast_path_and_what_cannot_be_rounded_leaves_it(value, fast):
    assert _refused([value]).tolist() == [not fast]
    assert _fast([value]) == ("%.17e\n" % value).encode()


def test_a_table_mixing_fast_and_fallback_chunks_writes_the_percent_bytes(tmp_path):
    rows = 2 * _CHUNK + 76  # three chunks, the last one short
    rng = np.random.default_rng(5)
    grid = np.arange(rows)  # an integer first column
    wide = rng.normal(size=rows) * 10.0 ** rng.integers(-250, 250, size=rows)
    small = rng.uniform(-1.0, 1.0, size=rows)
    small[[3, 100]] = [-0.0, 0.0]
    wide[7], small[8] = np.nan, TIE  # first chunk
    wide[2 * _CHUNK + 1], wide[2 * _CHUNK + 2], small[-1] = np.inf, -np.inf, 1e300  # last
    table = np.column_stack([grid, wide, small]).astype(float)
    assert _refused(table[:_CHUNK].ravel()).any()
    assert not _refused(table[_CHUNK:2 * _CHUNK].ravel()).any()
    path = tmp_path / "table.csv"
    write_csv(path, ["grid", "wide", "small"], [grid, wide, small])
    want = "grid,wide,small\n" + "".join(
        "%.17e,%.17e,%.17e\n" % values for values in zip(grid.tolist(), wide, small))
    assert path.read_bytes() == want.encode()


def test_only_the_refused_values_go_through_percent(tmp_path, monkeypatch):
    # one near-tie and one NaN in the second chunk, rows apart
    rows = 2 * _CHUNK
    rng = np.random.default_rng(9)
    first, second = rng.uniform(-1.0, 1.0, size=rows), rng.normal(size=rows)
    first[_CHUNK + 3], second[_CHUNK + 327] = TIE, np.nan
    formatted = []

    class Counted(str):
        def __mod__(self, value):
            formatted.append(value)
            return str.__mod__(self, value)

    monkeypatch.setattr(io, "_FMT", Counted(io._FMT))
    path = tmp_path / "table.csv"
    write_csv(path, ["a", "b"], [first, second])
    want = "a,b\n" + "".join("%.17e,%.17e\n" % values for values in zip(first, second))
    assert path.read_bytes() == want.encode()
    assert formatted[0] == TIE and np.isnan(formatted[1]) and len(formatted) == 2
