"""Unit tests for the SAX tier: the in-RAM iSAX array and its LB_SAX
kernel (prefilter.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HerculesConfig, HerculesIndex
from repro.core.prefilter import SignatureArray, reduce_symbols
from repro.storage.files import SymbolFile
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace

from ..conftest import make_random_walks

_SEGMENTS = 8
_LENGTH = 64


@pytest.fixture(scope="module")
def space() -> SaxSpace:
    return SaxSpace(segments=_SEGMENTS)


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    return make_random_walks(300, _LENGTH, seed=91)


@pytest.fixture(scope="module")
def symbols(space, data) -> np.ndarray:
    return space.symbolize(paa(data, _SEGMENTS))


@pytest.fixture(scope="module")
def query(space) -> np.ndarray:
    return make_random_walks(1, _LENGTH, seed=92)[0]


class TestReduceSymbols:
    def test_full_width_is_identity(self, space, symbols):
        np.testing.assert_array_equal(
            reduce_symbols(symbols, space, 8), symbols
        )

    def test_keeps_top_bits(self, space):
        sym = np.array([[0, 127, 128, 255]], dtype=np.uint8)
        np.testing.assert_array_equal(
            reduce_symbols(sym, space, 1), [[0, 0, 1, 1]]
        )
        np.testing.assert_array_equal(
            reduce_symbols(sym, space, 2), [[0, 1, 2, 3]]
        )

    @pytest.mark.parametrize("bits", [0, 9, -1])
    def test_rejects_out_of_range_bits(self, space, symbols, bits):
        with pytest.raises(ValueError, match="bits"):
            reduce_symbols(symbols, space, bits)


class TestSignatureArray:
    def test_rejects_wrong_shape(self, space):
        with pytest.raises(ValueError, match="reduced-symbol matrix"):
            SignatureArray(np.zeros((5, 3), dtype=np.uint8), space, 4)
        with pytest.raises(ValueError, match="reduced-symbol matrix"):
            SignatureArray(np.zeros(5, dtype=np.uint8), space, 4)

    def test_from_full_symbols(self, space, symbols):
        sig = SignatureArray.from_full_symbols(symbols, space, 4)
        assert sig.num_series == symbols.shape[0]
        np.testing.assert_array_equal(
            sig.reduced, reduce_symbols(symbols, space, 4)
        )
        assert sig.memory_bytes == sig.reduced.nbytes

    def test_full_width_shares_the_lsd_words(
        self, space, symbols, tmp_path, monkeypatch
    ):
        """Since the words are held segment-major the tier no longer
        shares LSDFile's row-major array: it holds the one resident copy,
        and ``reduced`` is a view of it."""
        for bits in (8, 4):
            sig = SignatureArray.from_full_symbols(symbols, space, bits)
            assert not np.shares_memory(sig.reduced, symbols)
            assert not sig.reduced.flags.owndata
            assert sig.reduced.T.flags.c_contiguous
            assert sig.memory_bytes == symbols.shape[0] * _SEGMENTS
        # The index's tier is the words of LSDFile, once: the array they
        # were read into is not kept.
        loaded = []
        read_all = SymbolFile.read_all
        monkeypatch.setattr(
            SymbolFile,
            "read_all",
            lambda self: loaded.append(read_all(self)) or loaded[-1],
        )
        config = HerculesConfig(
            leaf_capacity=20,
            sax_segments=_SEGMENTS,
        )
        data = make_random_walks(60, _LENGTH, seed=93)
        with HerculesIndex.build(data, config, directory=tmp_path) as index:
            assert index.signatures.bits == 8
            words = loaded.pop()
            np.testing.assert_array_equal(index.signatures.reduced, words)
            assert index.signatures.memory_bytes == words.nbytes
            assert not np.shares_memory(index.signatures.reduced, words)

    def test_query_paa_shape_validated(self, space, symbols):
        sig = SignatureArray.from_full_symbols(symbols, space, 4)
        with pytest.raises(ValueError, match="query PAA"):
            sig.lower_bounds(np.zeros(_SEGMENTS + 1), _LENGTH)


class TestLowerBounds:
    def _true_distances(self, data, query):
        diff = data.astype(np.float64) - query.astype(np.float64)
        return np.sqrt((diff * diff).sum(axis=1))

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_bounds_below_true_distance(self, space, data, symbols, query, bits):
        sig = SignatureArray.from_full_symbols(symbols, space, bits)
        bounds = sig.lower_bounds(paa(query, _SEGMENTS), _LENGTH)
        assert (bounds <= self._true_distances(data, query) + 1e-9).all()

    @pytest.mark.parametrize("bits", [1, 2, 4])
    def test_reduced_bounds_below_full_resolution(
        self, space, symbols, query, bits
    ):
        q_paa = paa(query, _SEGMENTS)
        sig = SignatureArray.from_full_symbols(symbols, space, bits)
        full = space.mindist(q_paa, symbols, _LENGTH)
        assert (sig.lower_bounds(q_paa, _LENGTH) <= full + 1e-9).all()

    def test_full_width_matches_sax_mindist(self, space, symbols, query):
        q_paa = paa(query, _SEGMENTS)
        sig = SignatureArray.from_full_symbols(symbols, space, 8)
        np.testing.assert_allclose(
            sig.lower_bounds(q_paa, _LENGTH),
            space.mindist(q_paa, symbols, _LENGTH),
            atol=1e-9,
        )

    @pytest.mark.parametrize("bits", [3, 8])
    def test_segment_major_gather_is_the_row_major_sum(
        self, space, symbols, query, bits
    ):
        """The gather over the segment-major words adds the same terms in
        the same order as the row-major expression it replaced: bit-equal
        sums for the whole array, a subset and an empty subset."""
        sig = SignatureArray.from_full_symbols(symbols, space, bits)
        tables = sig._gap_tables(paa(query, _SEGMENTS))
        subset = np.sort(np.random.default_rng(4).choice(300, 120, replace=False))
        for rows in (None, subset, subset[:0]):
            reduced = sig.reduced if rows is None else sig.reduced[rows]
            expected = np.zeros(reduced.shape[0])
            for j in range(_SEGMENTS):
                expected += tables[j, reduced[:, j]]
            np.testing.assert_array_equal(sig._gap_sq_sums(tables, rows), expected)


def _whole_array_mask(sig, q_paa, bsf_squared, prune_factor=1.0):
    """The screen's decision, re-derived from the linear-space bounds."""
    positions, bounds_sq = sig.screen(
        sig.gap_tables(q_paa), bsf_squared, _LENGTH, prune_factor=prune_factor
    )
    mask = np.zeros(sig.num_series, dtype=bool)
    mask[positions] = True
    return mask, positions, bounds_sq


class TestScreen:
    @pytest.fixture(scope="class")
    def sig(self, space, symbols):
        return SignatureArray.from_full_symbols(symbols, space, 4)

    def test_infinite_bsf_keeps_everything(self, sig, query):
        positions, bounds_sq = sig.screen(sig.gap_tables(paa(query, _SEGMENTS)), np.inf, _LENGTH)
        np.testing.assert_array_equal(positions, np.arange(sig.num_series))
        np.testing.assert_allclose(
            np.sqrt(bounds_sq),
            sig.lower_bounds(paa(query, _SEGMENTS), _LENGTH),
        )

    def test_zero_bsf_prunes_everything(self, sig, query):
        positions, bounds_sq = sig.screen(sig.gap_tables(paa(query, _SEGMENTS)), 0.0, _LENGTH)
        assert positions.shape == bounds_sq.shape == (0,)

    def test_never_prunes_a_beating_series(self, sig, data, query):
        diff = data.astype(np.float64) - query.astype(np.float64)
        true = np.sqrt((diff * diff).sum(axis=1))
        bsf = float(np.median(true))
        mask, _, _ = _whole_array_mask(sig, paa(query, _SEGMENTS), bsf * bsf)
        # Soundness: any series strictly inside the BSF must survive.
        assert mask[true < bsf].all()

    def test_prune_factor_only_tightens(self, sig, query):
        q_paa = paa(query, _SEGMENTS)
        plain, _, _ = _whole_array_mask(sig, q_paa, 4.0)
        eager, _, _ = _whole_array_mask(sig, q_paa, 4.0, prune_factor=1.3)
        # epsilon-scaled screening may only remove survivors.
        assert not (eager & ~plain).any()

    def test_survivors_match_bound_cutoff(self, sig, query):
        q_paa = paa(query, _SEGMENTS)
        bsf = 1.7
        mask, _, bounds_sq = _whole_array_mask(sig, q_paa, bsf * bsf)
        bounds = sig.lower_bounds(q_paa, _LENGTH)
        # The squared-space screen is the linear-space comparison
        # bounds < bsf (modulo the one rounding ulp of the sqrt), and the
        # returned values are those bounds, squared.
        assert (bounds[mask] < bsf + 1e-9).all()
        assert (bounds[~mask] >= bsf - 1e-9).all()
        np.testing.assert_allclose(np.sqrt(bounds_sq), bounds[mask])

    def test_screen_batch_is_screen_per_query(self, sig, data):
        queries = make_random_walks(4, _LENGTH, seed=1000)
        block = np.stack([paa(q, _SEGMENTS) for q in queries])
        bsf = np.array([0.5, 2.0, 25.0, np.inf])
        rng = np.random.default_rng(5)
        rows = [
            np.sort(rng.choice(sig.num_series, size=n, replace=False))
            for n in (0, 17, 120, sig.num_series)
        ]
        batch = sig.screen_batch(sig.gap_tables(block), bsf, _LENGTH, prune_factor=1.1, rows=rows)
        for i, (positions, bounds_sq) in enumerate(batch):
            single = sig.screen(
                sig.gap_tables(block[i]), bsf[i], _LENGTH, prune_factor=1.1, rows=rows[i]
            )
            np.testing.assert_array_equal(positions, single[0])
            np.testing.assert_array_equal(bounds_sq, single[1])
        with pytest.raises(ValueError, match="BSF"):
            sig.screen_batch(sig.gap_tables(block), bsf[:2], _LENGTH, 1.0, rows)
        with pytest.raises(ValueError, match="row arrays"):
            sig.screen_batch(sig.gap_tables(block), bsf, _LENGTH, 1.0, rows[:3])

    def test_empty_rows_return_at_once(self, sig, monkeypatch):
        """An empty row set (an empty LCList) runs no gather and
        returns empty int64 positions and float64 bounds, whatever dtype
        the empty input had; ``screen_batch`` with some empty row sets is
        still ``screen`` per query."""
        queries = make_random_walks(4, _LENGTH, seed=1001)
        block = np.stack([paa(q, _SEGMENTS) for q in queries])
        bsf = np.array([np.inf, 2.0, np.inf, 25.0])
        rows = [np.empty(0, dtype=np.int64), np.arange(40), np.array([]), np.arange(0)]
        expected = [
            sig.screen(sig.gap_tables(block[i]), bsf[i], _LENGTH, prune_factor=1.1, rows=rows[i])
            for i in range(4)
        ]
        batch = sig.screen_batch(sig.gap_tables(block), bsf, _LENGTH, prune_factor=1.1, rows=rows)
        for (positions, bounds_sq), (want_positions, want_bounds) in zip(batch, expected):
            np.testing.assert_array_equal(positions, want_positions)
            np.testing.assert_array_equal(bounds_sq, want_bounds)
        gathers = []
        monkeypatch.setattr(sig, "_gap_sq_sums", lambda *args: gathers.append(args))
        for empty in (rows[0], rows[2], rows[3]):
            positions, bounds_sq = sig.screen(sig.gap_tables(block[0]), np.inf, _LENGTH, rows=empty)
            assert positions.shape == bounds_sq.shape == (0,)
            assert positions.dtype == np.int64 and bounds_sq.dtype == np.float64
        assert not gathers

    @settings(max_examples=60, deadline=None)
    @given(
        bits=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        bsf_squared=st.sampled_from([0.0, 0.5, 4.0, 60.0, np.inf]),
        epsilon=st.sampled_from([0.0, 0.1]),
        subset=st.lists(st.integers(0, 299), unique=True, max_size=300),
    )
    def test_row_subset_is_whole_array_screen_restricted(
        self, space, symbols, bits, seed, bsf_squared, epsilon, subset
    ):
        """screen(rows=R) == whole-array screen ∩ R, bounds included."""
        sig = SignatureArray.from_full_symbols(symbols, space, bits)
        q_paa = paa(make_random_walks(1, _LENGTH, seed=seed)[0], _SEGMENTS)
        rows = np.array(sorted(subset), dtype=np.int64)
        mask, whole_positions, whole_bounds = _whole_array_mask(
            sig, q_paa, bsf_squared, prune_factor=1.0 + epsilon
        )
        positions, bounds_sq = sig.screen(
            sig.gap_tables(q_paa), bsf_squared, _LENGTH, prune_factor=1.0 + epsilon, rows=rows
        )
        np.testing.assert_array_equal(positions, rows[mask[rows]])
        np.testing.assert_array_equal(
            bounds_sq, whole_bounds[np.isin(whole_positions, rows)]
        )
