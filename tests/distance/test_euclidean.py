"""Unit tests for Euclidean distance kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.euclidean import (
    _row_norms,
    batch_squared_euclidean,
    early_abandon_squared,
    euclidean,
    squared_euclidean,
)

from ..conftest import make_random_walks


def _dense(pairs, shape):
    """A block call's screened ``(query_ids, rows, squared)`` pairs as the
    dense matrix they stand for: ``inf`` where no pair is listed."""
    query_ids, rows, squared = pairs
    dense = np.full(shape, np.inf)
    dense[query_ids, rows] = squared
    return dense


def _assert_pairs_sound(pairs, truth, cutoffs, masks=None):
    """The block form's contract against a float64 reference ``truth``
    ``(Q, rows)``: pairs grouped by query with rows ascending and none
    twice, each carrying the reference value bit for bit, and every
    (masked-in) pair at or inside its query's cutoff listed."""
    query_ids, rows, squared = pairs
    assert len(query_ids) == len(rows) == len(squared)
    order = np.lexsort((rows, query_ids))
    np.testing.assert_array_equal(order, np.arange(len(rows)))
    flat = query_ids * truth.shape[1] + rows
    assert len(np.unique(flat)) == len(flat)
    np.testing.assert_array_equal(squared, truth[query_ids, rows])
    listed = np.zeros(truth.shape, dtype=bool)
    listed[query_ids, rows] = True
    within = truth <= np.asarray(cutoffs)[:, None]
    if masks is not None:
        within &= masks
        assert not listed[~masks].any()
    assert listed[within].all()


class TestScalarKernels:
    def test_squared_euclidean_known_value(self):
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([1.0, 2.0, 2.0])
        assert squared_euclidean(a, b) == 9.0
        assert euclidean(a, b) == 3.0

    def test_symmetry_and_identity(self):
        a = make_random_walks(1, 32, seed=1)[0]
        b = make_random_walks(1, 32, seed=2)[0]
        assert squared_euclidean(a, b) == pytest.approx(squared_euclidean(b, a))
        assert squared_euclidean(a, a) == 0.0

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            squared_euclidean(np.zeros(3), np.zeros(4))


class TestBatchKernel:
    def test_matches_scalar_loop(self, small_dataset):
        query = small_dataset[0]
        batch = batch_squared_euclidean(query, small_dataset)
        for i in range(10):
            assert batch[i] == pytest.approx(
                squared_euclidean(query, small_dataset[i])
            )

    def test_accepts_single_candidate(self):
        q = np.array([1.0, 2.0])
        assert batch_squared_euclidean(q, np.array([3.0, 4.0])).shape == (1,)

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            batch_squared_euclidean(np.zeros(3), np.zeros((2, 4)))


class TestEarlyAbandon:
    def test_matches_batch_when_cutoff_infinite(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        abandoned, compared = early_abandon_squared(query, small_dataset, np.inf)
        np.testing.assert_allclose(abandoned, full, rtol=1e-10)
        assert compared == small_dataset.size

    def test_abandoned_rows_truly_exceed_cutoff(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.median(full))
        result, compared = early_abandon_squared(query, small_dataset, cutoff)
        surviving = np.isfinite(result)
        np.testing.assert_array_equal(result[surviving], full[surviving])
        assert np.all(full[~surviving] > cutoff)
        assert surviving[full <= cutoff].all()
        # The screen saves exact evaluations, not point comparisons: it
        # touches every point once.
        assert np.count_nonzero(~surviving) > small_dataset.shape[0] // 4
        assert compared == small_dataset.size

    def test_tight_cutoff_prunes_everything_but_self(self, small_dataset):
        query = small_dataset[3]
        result, _ = early_abandon_squared(query, small_dataset, 1e-12)
        assert np.isfinite(result[3])
        assert result[3] == pytest.approx(0.0, abs=1e-12)

    def test_rows_per_call_do_not_change_values(self, small_dataset):
        # Refinement chunks its candidates freely: a row's reported value
        # may not depend on which other rows share its kernel call.
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.quantile(full, 0.3))
        whole, _ = early_abandon_squared(query, small_dataset, cutoff)
        for step in (1, 7, 64):
            parts = [
                early_abandon_squared(query, small_dataset[lo : lo + step], cutoff)[0]
                for lo in range(0, small_dataset.shape[0], step)
            ]
            pieces = np.concatenate(parts)
            both = np.isfinite(whole) & np.isfinite(pieces)
            np.testing.assert_array_equal(whole[both], pieces[both])
            assert both[full <= cutoff].all()


class TestEarlyAbandonEdges:
    """Edge cases of the screening kernel the squared pipeline leans on."""

    def test_empty_candidate_matrix(self):
        distances, compared = early_abandon_squared(
            np.zeros(8), np.empty((0, 8)), 1.0
        )
        assert distances.shape == (0,)
        assert compared == 0

    def test_single_row_one_dimensional(self):
        q = np.array([1.0, 2.0, 3.0])
        distances, compared = early_abandon_squared(
            q, np.array([2.0, 2.0, 3.0]), np.inf
        )
        assert distances.shape == (1,)
        assert distances[0] == pytest.approx(1.0)
        assert compared == 3

    def test_nan_cutoff_behaves_like_infinite(self, small_dataset):
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        distances, compared = early_abandon_squared(
            query, small_dataset, float("nan")
        )
        np.testing.assert_array_equal(distances, full)
        assert compared == small_dataset.size

    def test_survivors_agree_with_batch_exactly(self, small_dataset):
        # Bit-for-bit, not approximately: the squared pipeline depends
        # on surviving rows matching the plain batch kernel so answers
        # are identical whichever code path computed them.
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        for quantile in (0.0, 0.1, 0.4, 0.9, 1.0):
            cutoff = float(np.quantile(full, quantile))
            distances, _ = early_abandon_squared(query, small_dataset, cutoff)
            alive = np.isfinite(distances)
            assert alive[full <= cutoff].all()
            np.testing.assert_array_equal(distances[alive], full[alive])

    def test_compared_counts_bounded_by_total(self, small_dataset):
        # ... and reaches the bound: the count is rows x length whatever
        # the cutoff, for one query and per query of a block.
        query = small_dataset[0]
        full = batch_squared_euclidean(query, small_dataset)
        cutoff = float(np.quantile(full, 0.1))
        _, compared = early_abandon_squared(query, small_dataset, cutoff)
        assert compared == small_dataset.size
        _, per_query = early_abandon_squared(
            small_dataset[:3], small_dataset, [cutoff, np.inf, 0.0]
        )
        assert per_query.tolist() == [small_dataset.size] * 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "name", ["huge", "tiny", "constant", "duplicates", "mixed-scale"]
    )
    def test_unboundable_rows_are_never_dropped(self, name, dtype):
        """Where the screen's own arithmetic breaks down — float32 norms
        overflow to inf near 1e19 (inf - inf is NaN), squares underflow
        below 1e-19, constant and duplicate series cancel exactly — the
        row goes to the exact pass, and the k nearest are the float64
        brute force's."""
        rng = np.random.default_rng(5)
        block = rng.standard_normal((40, 48))
        if name == "huge":
            block *= 1e20
        elif name == "tiny":
            block *= 1e-20
        elif name == "constant":
            block = np.repeat(rng.standard_normal((40, 1)) * 3.0, 48, axis=1)
        elif name == "mixed-scale":
            block[::2] *= 1e20
        block = block.astype(dtype)
        queries = block[:4].astype(np.float64)  # q == c duplicates
        if name == "duplicates":
            block[10:20] = block[0]
        # Brute force sharing no code with the kernels, and the plain
        # kernel's own values (what a live BSF² is made of) for the cutoffs.
        brute = ((block.astype(np.float64)[None] - queries[:, None]) ** 2).sum(axis=2)
        plain = np.stack([batch_squared_euclidean(query, block) for query in queries])
        for k in (1, 5):
            cutoffs = np.sort(plain, axis=1)[:, k - 1]
            pairs, _ = early_abandon_squared(queries, block, cutoffs)
            many = _dense(pairs, plain.shape)
            for qi, query in enumerate(queries):
                one, _ = early_abandon_squared(query, block, cutoffs[qi])
                nearest = plain[qi] <= cutoffs[qi]
                for distances in (one, many[qi]):
                    np.testing.assert_array_equal(distances[nearest], plain[qi][nearest])
                    np.testing.assert_allclose(
                        np.sort(distances)[:k], np.sort(brute[qi])[:k], rtol=1e-12
                    )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "name", ["huge", "tiny", "constant", "duplicates", "mixed-scale"]
    )
    def test_stored_norms_keep_every_row_within_the_cutoff(self, name, dtype):
        """The same blocks with their norms passed in (as an index passes
        its stored column): every row at or inside the cutoff keeps its
        exact value, in both forms, and the block's pairs are the finite
        entries of the dense reference."""
        rng = np.random.default_rng(7)
        block = rng.standard_normal((40, 48))
        if name == "huge":
            block *= 1e20
        elif name == "tiny":
            block *= 1e-20
        elif name == "constant":
            block = np.repeat(rng.standard_normal((40, 1)) * 3.0, 48, axis=1)
        elif name == "mixed-scale":
            block[::2] *= 1e20
        block = block.astype(dtype)
        queries = block[:4].astype(np.float64)
        if name == "duplicates":
            block[10:20] = block[0]
        norms = _row_norms(block)
        plain = np.stack([batch_squared_euclidean(query, block) for query in queries])
        for k in (1, 5):
            cutoffs = np.sort(plain, axis=1)[:, k - 1]
            pairs, points = early_abandon_squared(queries, block, cutoffs, norms=norms)
            assert points.tolist() == [block.size] * len(queries)
            _assert_pairs_sound(pairs, plain, cutoffs)
            unstored, _ = early_abandon_squared(queries, block, cutoffs)
            for got, want in zip(pairs, unstored):
                np.testing.assert_array_equal(got, want)
            for qi, query in enumerate(queries):
                one, _ = early_abandon_squared(query, block, cutoffs[qi], norms=norms)
                kept = np.isfinite(one)
                assert kept[plain[qi] <= cutoffs[qi]].all()
                np.testing.assert_array_equal(one[kept], plain[qi][kept])

    def test_overflowing_norm_of_a_near_row_is_kept(self):
        """A float32 row whose |c|² overflows to inf while its distance to
        the query is tiny: the screen's threshold for it is unbounded, so
        the row must reach the exact pass, not be dropped against an
        infinite threshold."""
        rng = np.random.default_rng(3)
        unit = rng.standard_normal(64)
        unit /= np.linalg.norm(unit)
        scale = np.sqrt(0.9999 * float(np.finfo(np.float32).max))
        query = unit * scale
        block = np.stack([query * 1.0001, -query, query * 0.5]).astype(np.float32)
        norms = _row_norms(block)
        assert np.isinf(norms[0]) and np.isfinite(norms[1:]).all()
        plain = batch_squared_euclidean(query, block)
        cutoff = plain[0]  # the near row is the nearest
        one, _ = early_abandon_squared(query, block, cutoff, norms=norms)
        assert one[0] == plain[0]
        pairs, _ = early_abandon_squared(
            np.stack([query, -query]), block, np.array([cutoff, np.inf]), norms=norms
        )
        _assert_pairs_sound(pairs, np.stack([plain, batch_squared_euclidean(-query, block)]),
                            [cutoff, np.inf])

    def test_empty_block_returns_no_pairs(self):
        pairs, points = early_abandon_squared(
            np.zeros((3, 8)), np.empty((0, 8), dtype=np.float32), np.ones(3),
            norms=np.empty(0, dtype=np.float32),
        )
        assert [len(column) for column in pairs] == [0, 0, 0]
        assert pairs[2].dtype == np.float64
        assert points.tolist() == [0, 0, 0]

    def test_mismatched_norms_are_rejected(self):
        block = np.ones((5, 8), dtype=np.float32)
        for norms in (np.ones(4, dtype=np.float32), np.ones(5)):
            with pytest.raises(ValueError, match="norms"):
                early_abandon_squared(np.zeros(8), block, 1.0, norms=norms)
            with pytest.raises(ValueError, match="norms"):
                early_abandon_squared(np.zeros((2, 8)), block, np.ones(2), norms=norms)


def _pairs(rng, kind, rows, length, num_queries, magnitude):
    """A float64 query block and candidate matrix of one of the shapes
    that stress ``|c|² + |q|² − 2 c·q``."""
    queries = rng.standard_normal((num_queries, length)) * magnitude
    block = rng.standard_normal((rows, length)) * magnitude
    if kind == "near-duplicate":
        # d² is ~1e-10 of the norms: the screen's value is all rounding.
        block = queries[rng.integers(num_queries, size=rows)] * (
            1.0 + 1e-5 * rng.standard_normal((rows, length))
        )
    elif kind == "offset":
        # A common level far above the spread: huge norms, small distances.
        queries = magnitude * (1.0 + 1e-4 * rng.standard_normal((num_queries, length)))
        block = magnitude * (1.0 + 1e-4 * rng.standard_normal((rows, length)))
    elif kind == "cancelling":
        # Alternating signs: the dot product cancels to ~0 of |c||q|.
        signs = np.where(np.arange(length) % 2, -1.0, 1.0)
        block = np.abs(block) * signs
        queries = np.abs(queries)
    return queries, block


class TestEarlyAbandonProperty:
    """The screen's rounding slack against the plain float64 kernel: on
    the dtypes refinement feeds it (float32 as read, float64 from callers
    that converted), for one query and for a block, at every kind of
    cutoff, under large norms, near-duplicates and cancellation."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 150),  # spans several 64-row whole-row passes
        length=st.one_of(st.integers(1, 512), st.sampled_from([1, 2, 256, 512])),
        exponent=st.floats(-3.0, 15.0),
        kind=st.sampled_from(["random", "near-duplicate", "offset", "cancelling"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        num_queries=st.integers(1, 4),
        quantile=st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([np.inf, np.nan, -1.0])
        ),
    )
    def test_matches_reference(
        self, seed, rows, length, exponent, kind, dtype, num_queries, quantile
    ):
        rng = np.random.default_rng(seed)
        queries, block = _pairs(rng, kind, rows, length, num_queries, 10.0**exponent)
        block = block.astype(dtype)
        # Duplicate rows land exactly on the cutoff when it is one of them.
        block[rng.integers(rows)] = block[0]
        truth = np.stack([batch_squared_euclidean(query, block) for query in queries])
        cutoffs = (
            np.quantile(truth, quantile, axis=1)
            if 0.0 <= quantile <= 1.0
            else np.full(num_queries, quantile)
        )
        # A cutoff that is one of the values: ties must survive.
        cutoffs[0] = truth[0, rng.integers(rows)] if quantile == quantile else cutoffs[0]

        pairs, compared = early_abandon_squared(queries, block, cutoffs)
        many = _dense(pairs, truth.shape)
        assert compared.tolist() == [block.size] * num_queries
        # Row masks: the first query takes every row, a second none.
        masks = rng.random((num_queries, rows)) < 0.5
        masks[0] = True
        masks[1:2] = False
        masked_pairs, masked_points = early_abandon_squared(
            queries, block, cutoffs, row_masks=masks
        )
        masked = _dense(masked_pairs, truth.shape)
        assert masked_points.tolist() == (masks.sum(axis=1) * length).tolist()
        # Masked-out rows report inf, masked-in ones the unmasked block's.
        np.testing.assert_array_equal(masked, np.where(masks, many, np.inf))
        for qi in range(num_queries):
            one, points = early_abandon_squared(queries[qi], block, cutoffs[qi])
            assert points == block.size
            both = np.isfinite(one) & np.isfinite(masked[qi])
            np.testing.assert_array_equal(masked[qi][both], one[both])
            for distances in (one, many[qi]):
                survivors = np.isfinite(distances)
                # Survivors carry the plain kernel's value bit for bit;
                # every row at or inside the cutoff is one; only a row
                # truly beyond it may report inf.
                np.testing.assert_array_equal(distances[survivors], truth[qi][survivors])
                assert survivors[truth[qi] <= cutoffs[qi]].all()
                assert np.all(truth[qi][~survivors] > cutoffs[qi])
            if not cutoffs[qi] < np.inf:  # the inf / NaN cutoff path abandons nothing
                assert np.isfinite(one).all()
        # A one-query block reports the single-query values.
        alone, _ = early_abandon_squared(queries[:1], block, cutoffs[:1])
        first, _ = early_abandon_squared(queries[0], block, cutoffs[0])
        np.testing.assert_array_equal(first, _dense(alone, (1, rows))[0])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 150),
        length=st.one_of(st.integers(1, 512), st.sampled_from([1, 2, 256, 512])),
        exponent=st.floats(-3.0, 15.0),
        kind=st.sampled_from(["random", "near-duplicate", "offset", "cancelling"]),
        dtype=st.sampled_from([np.float32, np.float64]),
        num_queries=st.integers(1, 4),
        quantile=st.one_of(
            st.floats(0.0, 1.0), st.sampled_from([np.inf, np.nan, -1.0])
        ),
    )
    def test_stored_norms_and_pairs(
        self, seed, rows, length, exponent, kind, dtype, num_queries, quantile
    ):
        """With the candidates' norms passed in, as refinement passes an
        index's stored column: the same answers as computing them, every
        row at or inside the cutoff kept with its exact value, and the
        block's pairs exactly the finite entries of the dense reference,
        grouped by query."""
        rng = np.random.default_rng(seed)
        queries, block = _pairs(rng, kind, rows, length, num_queries, 10.0**exponent)
        block = block.astype(dtype)
        block[rng.integers(rows)] = block[0]
        norms = _row_norms(block)
        truth = np.stack([batch_squared_euclidean(query, block) for query in queries])
        cutoffs = (
            np.quantile(truth, quantile, axis=1)
            if 0.0 <= quantile <= 1.0
            else np.full(num_queries, quantile)
        )
        cutoffs[0] = truth[0, rng.integers(rows)] if quantile == quantile else cutoffs[0]
        masks = rng.random((num_queries, rows)) < 0.5
        masks[0] = True

        pairs, _ = early_abandon_squared(queries, block, cutoffs, norms=norms)
        _assert_pairs_sound(pairs, truth, cutoffs)
        computed, _ = early_abandon_squared(queries, block, cutoffs)
        for got, want in zip(pairs, computed):
            np.testing.assert_array_equal(got, want)
        masked, points = early_abandon_squared(
            queries, block, cutoffs, row_masks=masks, norms=norms
        )
        assert points.tolist() == (masks.sum(axis=1) * length).tolist()
        _assert_pairs_sound(masked, truth, cutoffs, masks)
        for qi in range(num_queries):
            one, _ = early_abandon_squared(queries[qi], block, cutoffs[qi], norms=norms)
            kept = np.isfinite(one)
            np.testing.assert_array_equal(one[kept], truth[qi][kept])
            assert kept[truth[qi] <= cutoffs[qi]].all()
            assert np.all(truth[qi][~kept] > cutoffs[qi])
