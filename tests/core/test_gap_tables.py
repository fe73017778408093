"""The LB_SAX gap tables as a per-query value: one ``gap_tables`` call for
a query block, and the screens that index into it."""

import numpy as np
import pytest

from repro.core.prefilter import SignatureArray
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace

from ..conftest import make_random_walks

_SEGMENTS = 8
_LENGTH = 64


@pytest.fixture(scope="module")
def space() -> SaxSpace:
    return SaxSpace(segments=_SEGMENTS)


@pytest.fixture(scope="module")
def symbols(space) -> np.ndarray:
    return space.symbolize(paa(make_random_walks(300, _LENGTH, seed=91), _SEGMENTS))


@pytest.fixture(scope="module")
def block() -> np.ndarray:
    return paa(make_random_walks(5, _LENGTH, seed=94), _SEGMENTS)


def paa_screen(sig, q_paa, bsf_squared, prune_factor, rows):
    """The LB_SAX pass as a function of the query's PAA row, its tables
    built inline and the words gathered row-major: what the screen
    computed before it took prebuilt tables."""
    q = np.asarray(q_paa, dtype=np.float64)
    lower, upper = sig._lower_edges, sig._upper_edges
    gap = np.maximum(np.maximum(lower[None, :] - q[:, None], q[:, None] - upper[None, :]), 0.0)
    tables = gap * gap
    reduced = sig.reduced if rows is None else sig.reduced[rows]
    total = np.zeros(reduced.shape[0])
    for j in range(_SEGMENTS):
        total += tables[j, reduced[:, j]]
    bounds_sq = (_LENGTH / _SEGMENTS * prune_factor * prune_factor) * total
    keep = np.flatnonzero(bounds_sq < bsf_squared)
    return (keep if rows is None else rows[keep]), bounds_sq[keep]


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_block_tables_are_the_single_query_tables(space, symbols, block, bits):
    sig = SignatureArray.from_full_symbols(symbols, space, bits)
    tables = sig.gap_tables(block)
    assert tables.shape == (len(block), _SEGMENTS, 1 << bits)
    for i, row in enumerate(block):
        single = sig.gap_tables(row)
        assert single.shape == (_SEGMENTS, 1 << bits)
        np.testing.assert_array_equal(tables[i], single)


def test_tables_reject_other_shapes(space, symbols, block):
    sig = SignatureArray.from_full_symbols(symbols, space, 4)
    for bad in (np.zeros(_SEGMENTS + 1), np.zeros((2, 3, _SEGMENTS)), np.float64(0.0)):
        with pytest.raises(ValueError, match="query PAA"):
            sig.gap_tables(bad)
    # The screens and lower_bounds take one query's tables, not a block's.
    with pytest.raises(ValueError, match="gap tables"):
        sig.screen(sig.gap_tables(block), np.inf, _LENGTH)
    with pytest.raises(ValueError, match="gap tables"):
        sig.lower_bounds(block, _LENGTH)


@pytest.mark.parametrize("bits", [2, 8])
def test_screens_keep_the_rows_and_bounds_of_the_paa_pass(space, symbols, block, bits):
    sig = SignatureArray.from_full_symbols(symbols, space, bits)
    tables = sig.gap_tables(block)
    rng = np.random.default_rng(6)
    rows = [None, np.sort(rng.choice(300, 90, replace=False)), np.arange(0), None, np.arange(300)]
    bsf = [np.inf, 30.0, 2.0, 4.0, 0.0]
    for i, q_paa in enumerate(block):
        for prune_factor in (1.0, 1.2):
            got = sig.screen(tables[i], bsf[i], _LENGTH, prune_factor=prune_factor, rows=rows[i])
            want = paa_screen(sig, q_paa, bsf[i], prune_factor, rows[i])
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)
    subsets = [np.arange(300) if r is None else r for r in rows]
    batch = sig.screen_batch(tables, bsf, _LENGTH, prune_factor=1.2, rows=subsets)
    for i, (positions, bounds_sq) in enumerate(batch):
        want_positions, want_bounds = paa_screen(sig, block[i], bsf[i], 1.2, subsets[i])
        np.testing.assert_array_equal(positions, want_positions)
        np.testing.assert_array_equal(bounds_sq, want_bounds)
