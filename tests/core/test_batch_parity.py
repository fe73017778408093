"""Parity gates for the batched multi-query engine.

At ε = 0 ``knn_batch`` must be value-identical, per query, to a loop of
``knn`` — its own Q = 1 call, so these gates check the walk's
multi-query branch against its one-query branch — distances AND
positions, bit for bit, across every execution mode: with the LB_SAX
pass and under NoSAX (no pass), plain and sharded indexes (thread and
process-pool scatter), and degenerate batches (duplicated queries,
identical-query batches).  At ε > 0 a batch query re-checks its bounds
at the union's chunk cadence, not its own, so the gate is the ε
contract: every k-th distance within (1 + ε) of the brute-force one.

Paths and LB_SAX counters match the Q = 1 call's for every query the
pass runs for; in a shared walk the pass skips the queries whose leaves
the walk reads anyway (:func:`_assert_profiles_match_serial`).

Positions are LRD file positions, so every comparison queries the same
materialized index with only the execution strategy changing.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core import (
    BatchAnswer,
    BatchStats,
    HerculesConfig,
    HerculesIndex,
    QueryProfile,
    ShardedIndex,
)
from repro.eval.verify import epsilon_failures

from ..conftest import make_random_walks

_LENGTH = 64
_NUM_SERIES = 500


def _config(**overrides):
    return HerculesConfig(leaf_capacity=20, **overrides)


def _refined_path(use_sax, adaptive):
    """The path of the batches' medium queries: LCList under NoSAX,
    SCList behind the LB_SAX pass, or — beside the hard queries that
    EAPCA pruning sends to ``eapca-skipseq``, whose LCLists hold theirs
    — LCList with no pass."""
    if not use_sax:
        return "nosax-leaves"
    return "shared-leaves" if adaptive else "full-four-phase"


#: Two leaves of phase 1: on these small trees the default ``l_max``
#: answers most queries before refinement starts.
_SHORT_PHASE1 = _config(l_max=2)


def _make_queries(data, count, seed=3):
    """A mix of noisy copies, hard randoms, and exact duplicates."""
    rng = np.random.default_rng(seed)
    noisy = data[:count] + 0.3 * rng.standard_normal((count, _LENGTH))
    hard = rng.standard_normal((max(count // 3, 1), _LENGTH))
    copies = data[100 : 100 + max(count // 3, 1)]
    return np.vstack([noisy, hard, copies])[:count].astype(np.float32)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(_NUM_SERIES, _LENGTH, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    return _make_queries(data, 64)


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("batch-parity") / "index"
    built = HerculesIndex.build(data, _config(), directory=directory)
    yield built
    built.close()


@pytest.fixture(scope="module")
def wide_data():
    return make_random_walks(2000, _LENGTH, seed=19)


@pytest.fixture(scope="module")
def wide_index(wide_data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("batch-parity-wide") / "index"
    built = HerculesIndex.build(wide_data, _config(), directory=directory)
    yield built
    built.close()


def _assert_batch_matches_serial(index, queries, k, config=None):
    batch = index.knn_batch(queries, k=k, config=config)
    assert len(batch) == queries.shape[0]
    for qi, answer in enumerate(batch):
        serial = index.knn(queries[qi], k=k, config=config)
        np.testing.assert_array_equal(serial.distances, answer.distances)
        np.testing.assert_array_equal(serial.positions, answer.positions)
    return batch


def _assert_profiles_match_serial(index, queries, k, config, monkeypatch):
    """One ``knn_batch`` call's access paths and LB_SAX counters against
    each query's Q = 1 call.

    A query the LB_SAX pass ran for reports its Q = 1 path and counters.
    In a shared walk (two or more queries with candidate leaves) the
    pass skips the queries EAPCA pruning decided (``eapca-skipseq``) and
    those whose LCList lies inside the decided queries' LCLists
    (``shared-leaves``): both refine their untrimmed LCList, which holds
    the Q = 1 call's trimmed one, and count no pass.
    """
    from repro.core import batch_query

    lclists, choose = [], batch_query._choose_path

    def choosing(state, lclist, candidates):
        lclists.append(lclist)
        return choose(state, lclist, candidates)

    with monkeypatch.context() as patch:
        patch.setattr(batch_query, "_choose_path", choosing)
        batch = index.knn_batch(queries, k=k, config=config)
    profiles = [answer.profile for answer in batch]
    shared = sum(p.eapca_pruning < 1.0 for p in profiles) >= 2
    covered = np.zeros(index._table.num_leaves, dtype=bool)
    for profile, lclist in zip(profiles, lclists):
        if shared and profile.path == "eapca-skipseq":
            covered[lclist] = True
    for qi, profile in enumerate(profiles):
        serial = index.knn(queries[qi], k=k, config=config).profile
        assert profile.eapca_pruning == serial.eapca_pruning
        if not shared or profile.path not in ("eapca-skipseq", "shared-leaves"):
            assert profile.path == serial.path
            assert profile.candidate_leaves == serial.candidate_leaves
            assert profile.candidate_series == serial.candidate_series
            assert profile.sax_pruning == serial.sax_pruning
            assert profile.prefilter_screened == serial.prefilter_screened
            assert profile.prefilter_survivors == serial.prefilter_survivors
            continue
        assert covered[lclists[qi]].all()
        assert profile.prefilter_screened == profile.prefilter_survivors == 0
        assert profile.candidate_series == 0
        assert profile.sax_pruning is None
        assert (profile.path == "eapca-skipseq") == (serial.path == "eapca-skipseq")
        assert profile.candidate_leaves >= serial.candidate_leaves
    return batch


def _assert_epsilon_contract(index, data, queries, k, config):
    """Every batch answer's k-th distance ≤ (1 + ε) × the brute-force
    k-th distance (``repro.eval.verify``'s check)."""
    batch = index.knn_batch(queries, k=k, config=config)
    failures = epsilon_failures(batch, data.astype(np.float32), queries, config.epsilon, k=k)
    assert not failures, failures
    return batch


@pytest.fixture
def small_chunks(monkeypatch):
    """Refinement chunks of at most 32 rows — one to three of these
    20-row leaves — so a batch walks hundreds of chunks: "leaves" and
    "series" users meet in one chunk, cuts fall mid-list, and late
    chunks find every query pruned."""
    from repro.core import query

    monkeypatch.setattr(query, "_CHUNK_ROWS", 32)


@pytest.fixture
def small_windows(monkeypatch):
    """Walk windows of at most 100 file rows — a few of these 20-row
    leaves — so a batch builds its entry tables in several windows."""
    from repro.core import query

    monkeypatch.setattr(query, "_WINDOW_ROWS", 100)


class _WalkSpy:
    """What one ``knn_batch`` call's refinement walk did: the rows of
    the extents it was handed, its chunk count and entry tables (one per
    window it walked), the extents it read and each read call's span,
    and per kernel call the row masks (None for a chunk only one query
    needed), the rows it evaluated for its queries, the distances it
    returned and the result-set merges that followed it."""

    def __init__(self, monkeypatch):
        from repro.core import batch_query, query
        from repro.core.results import ResultSet
        from repro.storage.files import SeriesFile

        self.extent_rows, self.chunks, self.reads, self.kernel_calls = 0, [], [], []
        self.tables, self.read_spans = [], []
        self.kernel_rows, self.kernel_out, self.merges = [], [], []
        walking = [False]
        walk, cut = batch_query._refine_runs, query._chunk_cuts
        kernel, read_range = query.early_abandon_squared, SeriesFile.read_range
        merge = ResultSet.update_batch_squared

        def walking_refine(states, extents, *args, **kwargs):
            self.extent_rows += sum(int(sizes.sum()) for _, sizes, _ in extents)
            self.chunks.append(0)
            self.tables.append(0)
            walking[0] = True
            try:
                return walk(states, extents, *args, **kwargs)
            finally:
                walking[0] = False

        def cutting(sizes):
            # One cut per entry table: the walk's chunks are the sum.
            cuts = cut(sizes)
            if walking[0]:
                self.chunks[-1] += len(cuts) - 1
                self.tables[-1] += 1
            return cuts

        def evaluating(queries, candidates, cutoffs, row_masks=None, norms=None):
            result = kernel(queries, candidates, cutoffs, row_masks=row_masks, norms=norms)
            if walking[0]:
                self.kernel_calls.append(row_masks)
                self.kernel_rows.append(
                    len(candidates) if row_masks is None else int(row_masks.sum())
                )
                out = result[0]
                if row_masks is not None:  # the block form's pairs, as a dense matrix
                    query_ids, rows, squared = out
                    out = np.full(row_masks.shape, np.inf)
                    out[query_ids, rows] = squared
                self.kernel_out.append(out)
                self.merges.append(0)
            return result

        def reading(file, position, count, out=None):
            if walking[0]:
                firsts, counts = np.atleast_1d(position), np.atleast_1d(count)
                self.reads.extend(zip(firsts.tolist(), counts.tolist()))
                self.read_spans.append((int(firsts[0]), int(firsts[-1] + counts[-1])))
            return read_range(file, position, count, out=out)

        def merging(results, distances, positions):
            if walking[0]:
                self.merges[-1] += 1
            return merge(results, distances, positions)

        monkeypatch.setattr(batch_query, "_refine_runs", walking_refine)
        monkeypatch.setattr(query, "_chunk_cuts", cutting)
        monkeypatch.setattr(query, "early_abandon_squared", evaluating)
        monkeypatch.setattr(SeriesFile, "read_range", reading)
        monkeypatch.setattr(ResultSet, "update_batch_squared", merging)


def _mixed_calls(spy) -> list:
    """The walk's kernel calls in which a query that takes every row
    read sits beside one masked to some of them."""
    return [
        masks
        for masks in spy.kernel_calls
        if masks is not None and 0 < masks.all(axis=1).sum() < len(masks)
    ]


def _assert_read_once(index, queries, k, config, monkeypatch):
    """One ``knn_batch`` call's walk reads no row twice, and its
    ``BatchStats`` count what it read and refined: the leaves read
    (``unique_leaf_reads``), the (query, leaf) refinements
    (``leaf_uses``) and the rows each query's kernel evaluated
    (``kernel_rows``)."""
    with monkeypatch.context() as patch:
        spy = _WalkSpy(patch)
        batch = index.knn_batch(queries, k=k, config=config)
    stats = batch.stats

    times_read = np.zeros(index.num_series, dtype=np.int64)
    for position, count in spy.reads:
        times_read[position : position + count] += 1
    assert times_read.max(initial=0) <= 1
    leaves_read = {
        leaf.node_id
        for leaf in index.leaves
        if times_read[leaf.file_position : leaf.file_position + leaf.size].any()
    }
    assert stats.unique_leaf_reads == len(leaves_read) <= index.num_leaves
    assert stats.leaf_uses >= stats.unique_leaf_reads
    # The walk counts the rows its kernel calls evaluated: the masked-in
    # ones, or every row of an unmasked call; each row read was one.
    assert stats.kernel_rows == sum(spy.kernel_rows) >= times_read.sum()
    # Without a leaf cache there are no cache lookups to report.
    assert all(a.profile.cache_hits == a.profile.cache_misses == 0 for a in batch)
    return stats, spy


class TestPlainExactParity:
    @pytest.mark.parametrize("num_queries", [2, 64])
    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_bit_for_bit(self, index, queries, num_queries, k):
        _assert_batch_matches_serial(index, queries[:num_queries], k)

    def test_batch_path_matches_serial_path(self, index, queries):
        """The access-path decision itself must replicate serial."""
        batch = index.knn_batch(queries[:16], k=5)
        for qi, answer in enumerate(batch):
            serial = index.knn(queries[qi], k=5)
            assert answer.profile.path == serial.profile.path


class TestEpsilonParity:
    """At ε > 0 a query's pruning depends on the BSF² at each re-check,
    and the batch walk re-checks once per chunk of the union: answers
    may differ from ``knn``'s, but every one meets the ε guarantee."""

    @pytest.mark.parametrize("use_sax", [True, False])
    @pytest.mark.parametrize("k", [1, 10])
    def test_bit_for_bit(self, index, data, queries, use_sax, k):
        config = index.config.with_options(epsilon=0.15, use_sax=use_sax)
        _assert_epsilon_contract(index, data, queries[:16], k, config)

    def test_large_epsilon(self, index, data, queries):
        config = index.config.with_options(epsilon=1.0)
        _assert_epsilon_contract(index, data, queries[:8], 5, config)


class TestRefinementPaths:
    """The default L_max covers this whole small tree, so the queries
    above are answered by phase 1 alone; a short phase 1 sends them
    through the LB_SAX pass, phase 4 and the skip-sequential scans."""

    @staticmethod
    def _mixed(data, queries):
        hard = np.random.default_rng(8).standard_normal((6, _LENGTH))
        return np.vstack([queries[:6], hard, data[100:104]]).astype(np.float32)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_sax", [True, False])
    @pytest.mark.parametrize("epsilon", [0.0, 0.15])
    def test_bit_for_bit(
        self, index, data, queries, monkeypatch, epsilon, use_sax, adaptive
    ):
        config = index.config.with_options(
            l_max=2,
            epsilon=epsilon,
            use_sax=use_sax,
            adaptive_thresholds=adaptive,
        )
        mixed = self._mixed(data, queries)
        if epsilon > 0:
            batch = _assert_epsilon_contract(index, data, mixed, 5, config)
        else:
            batch = _assert_batch_matches_serial(index, mixed, k=5, config=config)
        paths = {answer.profile.path for answer in batch}
        assert _refined_path(use_sax, adaptive) in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        _assert_profiles_match_serial(index, mixed, 5, config, monkeypatch)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_sax", [True, False])
    def test_exact_small_chunks(
        self, index, data, queries, small_chunks, monkeypatch, use_sax, adaptive
    ):
        config = index.config.with_options(
            l_max=2, use_sax=use_sax, adaptive_thresholds=adaptive
        )
        mixed = self._mixed(data, queries)
        batch = _assert_batch_matches_serial(index, mixed, k=5, config=config)
        paths = {answer.profile.path for answer in batch}
        assert _refined_path(use_sax, adaptive) in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        _assert_read_once(index, mixed, 5, config, monkeypatch)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_sax", [True, False])
    def test_exact_small_chunks_wide(
        self, wide_index, wide_data, small_chunks, monkeypatch, use_sax, adaptive
    ):
        """2 000 series in chunks of 32 rows: most chunks serve whole-leaf
        and per-row users together, and an easy batch leaves chunks in
        which every query is pruned (no kernel call)."""
        config = wide_index.config.with_options(
            l_max=2, use_sax=use_sax, adaptive_thresholds=adaptive
        )
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, rng.standard_normal((8, _LENGTH))]).astype(np.float32)
        easy = (wide_data[[33, 150]] + 0.5 * rng.standard_normal((2, _LENGTH))).astype(
            np.float32
        )

        batch = _assert_batch_matches_serial(wide_index, mixed, k=5, config=config)
        paths = {answer.profile.path for answer in batch}
        assert _refined_path(use_sax, adaptive) in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        stats, spy = _assert_read_once(wide_index, mixed, 5, config, monkeypatch)
        assert spy.chunks[0] > 60
        if adaptive:
            # Both kinds of user in one kernel call: a query that takes
            # every row read (whole leaves) beside one masked to some
            # (its own leaves).  The hard queries' LCLists hold the
            # medium ones', so the pass skips those and the walk is the
            # one NoSAX makes; SCList rows beside whole leaves are
            # test_shared_walk_splits_the_pass's.
            assert len(_mixed_calls(spy)) > 40
        assert stats.leaf_share_factor > 1.0

        # An easy batch in which a chunk finds every query pruned, so it
        # makes no kernel call.  The walk cuts its chunks over the
        # candidates themselves (here SCList rows, each below the BSF²
        # it was selected under), so such a chunk needs both BSF² to
        # fall below all of its rows' bounds mid-walk: most easy pairs
        # of this index never do, these two do once.
        _assert_batch_matches_serial(wide_index, easy, k=5, config=config)
        stats, spy = _assert_read_once(wide_index, easy, 5, config, monkeypatch)
        assert 0 < len(spy.kernel_calls) < spy.chunks[0]
        assert 0 < stats.kernel_rows < spy.extent_rows

    def test_shared_walk_splits_the_pass(
        self, wide_index, wide_data, small_chunks, monkeypatch
    ):
        """One call holding all three kinds of query: a hard one EAPCA
        pruning decided, a medium one whose LCList lies inside the hard
        one's (no pass, ``shared-leaves``) and one with a leaf outside
        it (the pass, its Q = 1 path).  Without the middle one, the
        walk's kernel calls serve SCList rows beside whole leaves."""
        config = wide_index.config.with_options(l_max=2)
        rng = np.random.default_rng(9)
        noisy = wide_data[:40] + 0.5 * rng.standard_normal((40, _LENGTH))
        split = noisy[[37, 5, 0]].astype(np.float32)
        batch = _assert_batch_matches_serial(wide_index, split, k=5, config=config)
        paths = [answer.profile.path for answer in batch]
        assert paths == ["eapca-skipseq", "shared-leaves", "full-four-phase"]
        assert batch[2].profile.prefilter_screened > 0
        _assert_profiles_match_serial(wide_index, split, 5, config, monkeypatch)
        _assert_read_once(wide_index, split, 5, config, monkeypatch)
        _, spy = _assert_read_once(wide_index, split[[0, 2]], 5, config, monkeypatch)
        assert len(_mixed_calls(spy)) > 10

    def test_walk_of_one_keeps_the_pass(self, index, data):
        """A batch in which one query has candidate leaves — the others
        are indexed series, which phase 1 answers at k = 1, leaving an
        empty LCList — walks as that query's Q = 1 call: the decided
        query keeps the LB_SAX pass, and its profile is the Q = 1
        call's field for field."""
        config = index.config.with_options(l_max=2)
        hard = np.random.default_rng(8).standard_normal((1, _LENGTH))
        block = np.vstack([hard, data[200:207]]).astype(np.float32)
        batch = _assert_batch_matches_serial(index, block, k=1, config=config)
        for answer in batch[1:]:
            assert answer.profile.path == "approx-only"
            assert answer.profile.eapca_pruning == 1.0
        walker = batch[0].profile
        serial = index.knn(block[0], k=1, config=config).profile
        assert walker.path == "eapca-skipseq"
        assert walker.prefilter_screened > 0
        timings = {"time_total", "time_approx", "time_candidates", "time_refine", "io"}
        for name in {f.name for f in fields(QueryProfile)} - timings:
            assert getattr(walker, name) == getattr(serial, name), name

    def test_no_decided_query_keeps_every_pass(self, index, queries, monkeypatch):
        """A shared walk in which EAPCA pruning decided no query covers
        no leaf: every query keeps the LB_SAX pass, and its Q = 1 path
        and counters."""
        config = index.config.with_options(l_max=2)
        easy = np.stack([
            query
            for query in queries[:16]
            if index.knn(query, k=5, config=config).profile.path == "full-four-phase"
        ])
        assert len(easy) >= 8
        _assert_batch_matches_serial(index, easy, k=5, config=config)
        batch = _assert_profiles_match_serial(index, easy, 5, config, monkeypatch)
        for answer in batch:
            assert answer.profile.path == "full-four-phase"
            assert answer.profile.prefilter_screened > 0

    def test_abandoned_query_makes_no_merge(
        self, wide_index, wide_data, small_chunks, monkeypatch
    ):
        """A query that takes part in a shared chunk but whose rows all
        abandon there makes no result-set merge for it; every query with
        a finite distance makes exactly one."""
        config = wide_index.config.with_options(l_max=2)
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, rng.standard_normal((8, _LENGTH))]).astype(np.float32)
        with monkeypatch.context() as patch:
            spy = _WalkSpy(patch)
            wide_index.knn_batch(mixed, k=5, config=config)
        abandoned = 0
        for masks, squared, merges in zip(spy.kernel_calls, spy.kernel_out, spy.merges):
            if masks is None:
                assert merges == 1
                continue
            finite = np.isfinite(squared).any(axis=1)
            assert merges == finite.sum()
            abandoned += int((masks.any(axis=1) & ~finite).sum())
        assert abandoned > 0

    def test_leaf_above_the_chunk_cap(self, index, data, queries, monkeypatch):
        """A leaf holding more rows than a chunk may is a chunk of its own
        and the shared buffer grows to take it."""
        from repro.core import query

        monkeypatch.setattr(query, "_CHUNK_ROWS", 8)
        assert max(leaf.size for leaf in index.leaves) > 8
        config = index.config.with_options(l_max=2)
        mixed = self._mixed(data, queries)
        _assert_batch_matches_serial(index, mixed, k=5, config=config)
        _assert_read_once(index, mixed, 5, config, monkeypatch)

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_sax", [True, False])
    def test_epsilon_counters_over_many_chunks(
        self, wide_index, wide_data, use_sax, adaptive
    ):
        """On 2 000 series a skip-sequential scan covers runs of many
        20-row leaves in several refinement chunks and phase 4 several
        chunks of SCList, so the batch's re-check cadence departs from
        each query's own: the ε contract still holds, and each query
        counts the rows its kernel evaluated as the rows it accessed."""
        config = wide_index.config.with_options(
            l_max=2,
            epsilon=0.15,
            use_sax=use_sax,
            adaptive_thresholds=adaptive,
        )
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        hard = rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, hard]).astype(np.float32)
        batch = _assert_epsilon_contract(wide_index, wide_data, mixed, 5, config)
        paths = {answer.profile.path for answer in batch}
        assert _refined_path(use_sax, adaptive) in paths
        if adaptive:
            assert "eapca-skipseq" in paths
        for answer in batch:
            profile = answer.profile
            assert profile.distance_computations == profile.series_accessed
            assert profile.points_total == profile.series_accessed * _LENGTH
        # The fixture is only worth its build time if scans really span
        # several chunks (256 rows each).
        assert max(a.profile.distance_computations for a in batch) > 4 * 256


class TestWindowedWalk:
    """A batch builds its entry tables one file window at a time; the
    answers, profiles and stats are those of a walk over one table."""

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("use_sax", [True, False])
    def test_exact_over_several_windows(
        self, index, data, queries, small_windows, monkeypatch, use_sax, adaptive
    ):
        from repro.core import query

        config = index.config.with_options(
            l_max=2, use_sax=use_sax, adaptive_thresholds=adaptive
        )
        mixed = TestRefinementPaths._mixed(data, queries)
        _assert_batch_matches_serial(index, mixed, k=5, config=config)
        _assert_profiles_match_serial(index, mixed, 5, config, monkeypatch)
        stats, spy = _assert_read_once(index, mixed, 5, config, monkeypatch)
        assert spy.tables[0] >= 3
        # A chunk never spans two windows, nor does any read of one.
        edges = query._window_edges(index._table)
        for first, end in spy.read_spans:
            window = np.searchsorted(edges, first, side="right") - 1
            assert end <= edges[window + 1]

    @pytest.mark.parametrize("use_sax", [True, False])
    def test_epsilon_over_several_windows(
        self, wide_index, wide_data, small_windows, use_sax
    ):
        config = wide_index.config.with_options(l_max=2, epsilon=0.15, use_sax=use_sax)
        rng = np.random.default_rng(9)
        noisy = wide_data[:8] + 0.5 * rng.standard_normal((8, _LENGTH))
        mixed = np.vstack([noisy, rng.standard_normal((8, _LENGTH))]).astype(np.float32)
        _assert_epsilon_contract(wide_index, wide_data, mixed, 5, config)

    def test_pool_over_several_windows(self, index, data, queries, small_windows, tmp_path):
        """A one-worker pool answers a sharded batch through the same
        windowed walk (the worker forks after the patch): the answers
        are the sharded serial ones, at the plain index's distances."""
        sharded = ShardedIndex.build(
            data, _config(num_shards=2, shard_workers=1, l_max=2), directory=tmp_path / "pool"
        )
        try:
            config = sharded.config
            mixed = TestRefinementPaths._mixed(data, queries)
            batch = _assert_batch_matches_serial(sharded, mixed, k=5, config=config)
            for qi, answer in enumerate(batch):
                plain = index.knn(mixed[qi], k=5, config=index.config.with_options(l_max=2))
                np.testing.assert_array_equal(plain.distances, answer.distances)
        finally:
            sharded.close()


class TestDegenerateBatches:
    def test_duplicate_queries(self, index, queries):
        batch_queries = np.vstack([queries[:4], queries[:4], queries[:4]])
        _assert_batch_matches_serial(index, batch_queries, k=5)

    def test_identical_query_batch(self, index, queries):
        batch_queries = np.repeat(queries[:1], 8, axis=0)
        batch = _assert_batch_matches_serial(index, batch_queries, k=5)
        first = batch[0]
        for answer in batch:
            np.testing.assert_array_equal(first.distances, answer.distances)
            np.testing.assert_array_equal(first.positions, answer.positions)

    def test_indexed_series_as_queries(self, index, data):
        """Zero-distance self matches survive batching."""
        batch = _assert_batch_matches_serial(
            index, data[200:208].astype(np.float32), k=1
        )
        for answer in batch:
            assert answer.distances[0] == 0.0

    def test_empty_batch(self, index):
        batch = index.knn_batch(np.empty((0, _LENGTH), dtype=np.float32))
        assert len(batch) == 0
        assert isinstance(batch, BatchAnswer)

    def test_rejects_1d_input(self, index, queries):
        with pytest.raises(ValueError, match="2-D|matrix"):
            index.knn_batch(queries[0])


class TestBatchSurface:
    def test_list_compatibility(self, index, queries):
        batch = index.knn_batch(queries[:4], k=3)
        assert len(batch) == 4
        assert list(iter(batch))[2] is batch[2]

    def test_stats_accounting(self, index, queries):
        # A short phase 1, so the queries reach the refinement walk.
        batch = index.knn_batch(queries[:32], k=5, config=_SHORT_PHASE1)
        stats = batch.stats
        assert isinstance(stats, BatchStats)
        assert stats.num_queries == 32
        assert stats.unique_leaf_reads > 0
        # Every leaf read served at least one query, so the share factor
        # is >= 1; with 32 queries over one small index, leaves must
        # actually be shared.
        assert stats.leaf_uses >= stats.unique_leaf_reads
        assert stats.leaf_share_factor > 1.0
        # Walk rows are a part of the rows the answers report refined.
        assert 0 < stats.kernel_rows < sum(a.profile.distance_computations for a in batch)
        assert stats.total_seconds > 0.0

    def test_shared_reads_beat_serial_reads(self, index, queries):
        """The walk must read fewer leaves than its queries refine from
        in total (that is the point of the engine)."""
        batch = index.knn_batch(queries[:32], k=5, config=_SHORT_PHASE1)
        assert batch.stats.unique_leaf_reads < batch.stats.leaf_uses

    def test_cache_counters_partition_the_cache_lookups(
        self, data, queries, tmp_path, monkeypatch
    ):
        """With a leaf cache, the answers' lookups sum to the cache's own
        count for the call (a batch charges its shared phase-1 and walk
        reads to its first query): for a batch, and for one query whose
        phase-4 walk spans many chunks."""
        from repro.core import query

        monkeypatch.setattr(query, "_CHUNK_ROWS", 8)
        built = HerculesIndex.build(
            data, _config(l_max=2), directory=tmp_path / "cached", cache_bytes=1 << 20
        )
        built.close()
        four_phase = _config(l_max=2, adaptive_thresholds=False)
        for call in ("knn_batch", "knn"):
            cached = HerculesIndex.open(tmp_path / "cached", cache_bytes=1 << 20)
            try:
                for _ in range(2):  # cold, then warm
                    before = cached.leaf_cache.snapshot()
                    if call == "knn_batch":
                        answers = cached.knn_batch(queries[:16], k=5)
                    else:
                        answers = [cached.knn(queries[20], k=5, config=four_phase)]
                        assert answers[0].profile.path == "full-four-phase"
                        assert answers[0].profile.candidate_series > 4 * 8
                    delta = cached.leaf_cache.snapshot() - before
                    assert sum(a.profile.cache_hits for a in answers) == delta.hits
                    assert sum(a.profile.cache_misses for a in answers) == delta.misses
                assert delta.hits > 0
            finally:
                cached.close()

    def test_result_length_mismatch_rejected(self, index, queries):
        from repro.core import ResultSet
        from repro.core.batch_query import exact_knn_batch

        with pytest.raises(ValueError, match="result sets"):
            exact_knn_batch(
                queries[:4], 3, index.config, index._table, index._lrd,
                index.signatures, index.num_series, index._norms, results=[ResultSet(3)],
            )


class TestShardedParity:
    """Sharded comparisons run exact mode only: even the *serial*
    sharded path is nondeterministic under ε (racy shared BSF)."""

    @pytest.fixture(scope="class", params=[2, 4])
    def sharded(self, data, tmp_path_factory, request):
        directory = tmp_path_factory.mktemp(
            f"batch-shards-{request.param}"
        ) / "index"
        built = ShardedIndex.build(
            data,
            _config(num_shards=request.param, shard_workers=1),
            directory=directory,
        )
        yield built
        built.close()

    @pytest.mark.parametrize("num_queries", [2, 16])
    @pytest.mark.parametrize("k", [1, 10])
    def test_threads_bit_for_bit(self, sharded, queries, num_queries, k):
        _assert_batch_matches_serial(sharded, queries[:num_queries], k)

    def test_threads_duplicate_queries(self, sharded, queries):
        batch_queries = np.repeat(queries[:2], 4, axis=0)
        _assert_batch_matches_serial(sharded, batch_queries, k=5)

    def test_stats_aggregate_across_shards(self, sharded, queries):
        batch = sharded.knn_batch(queries[:16], k=5, config=sharded.config.with_options(l_max=2))
        assert batch.stats.num_queries == 16
        assert batch.stats.unique_leaf_reads > 0
        assert batch.stats.leaf_share_factor > 1.0

    def test_single_shard_is_plain_engine(self, data, tmp_path, queries):
        built = ShardedIndex.build(
            data, _config(num_shards=1), directory=tmp_path / "one"
        )
        try:
            assert isinstance(built, HerculesIndex)
            _assert_batch_matches_serial(built, queries[:8], k=5)
        finally:
            built.close()


class TestPoolParity:
    def test_pool_bit_for_bit(self, data, queries, tmp_path):
        from repro.core import open_index

        directory = tmp_path / "pooled"
        built = ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=1),
            directory=directory,
        )
        serial = [built.knn(q, k=5) for q in queries[:12]]
        built.close()
        pooled = open_index(directory, workers=2)
        try:
            batch = pooled.knn_batch(queries[:12], k=5)
            for qi, answer in enumerate(batch):
                np.testing.assert_array_equal(
                    serial[qi].distances, answer.distances
                )
                np.testing.assert_array_equal(
                    serial[qi].positions, answer.positions
                )
        finally:
            pooled.close()

    def test_pool_chunks_above_capacity(self, data, tmp_path):
        from repro.core import open_index

        directory = tmp_path / "chunked"
        ShardedIndex.build(
            data,
            _config(num_shards=2, shard_workers=1),
            directory=directory,
        ).close()
        pooled = open_index(directory, workers=2)
        try:
            many = _make_queries(data, pooled._pool.batch_capacity + 1, seed=5)
            _assert_batch_matches_serial(pooled, many, k=3)
        finally:
            pooled.close()
