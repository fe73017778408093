"""Unit tests of individual query-answering phases (Algorithms 11-14)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex
from repro.core import query as query_module
from repro.core.leaf_table import extent_rows
from repro.core.query import (
    _approx_knn,
    _find_candidate_leaves,
    _search_states,
)
from repro.core.results import LinkedResultSet
from repro.core.shard_worker import ProcessBsfVector
from repro.distance.euclidean import early_abandon_squared
from repro.storage.files import adjacent_runs
from repro.types import as_series

from ..conftest import make_random_walks


@pytest.fixture(scope="module")
def corpus():
    return make_random_walks(900, 32, seed=190)


@pytest.fixture(scope="module")
def index(corpus, tmp_path_factory):
    config = HerculesConfig(
        leaf_capacity=45,
        l_max=3,
        sax_segments=8,
    )
    idx = HerculesIndex.build(
        corpus, config, directory=tmp_path_factory.mktemp("phases")
    )
    yield idx
    idx.close()


def make_state(index, query, k=3, **config_overrides):
    config = index.config.with_options(**config_overrides)
    (state,) = _search_states(
        as_series(query)[None],
        k,
        config,
        index._table,
        index._lrd,
        index.signatures,
        index.num_series,
        index._norms,
    )
    return state


class TestApproxPhase:
    def test_visits_at_most_l_max_leaves(self, index):
        query = make_random_walks(1, 32, seed=191)[0]
        for l_max in (1, 2, 5):
            state = make_state(index, query, l_max=l_max)
            _approx_knn(state)
            assert state.profile.approx_leaves <= l_max

    def test_first_leaf_is_the_query_route_leaf(self, index, corpus):
        """For a dataset member, phase 1 must reach distance zero."""
        state = make_state(index, corpus[10], k=1, l_max=1)
        _approx_knn(state)
        distances, _ = state.results.items()
        assert distances[0] == pytest.approx(0.0, abs=1e-5)

    def test_terminates_early_when_pq_prunes(self, index, corpus):
        """With an exact self-match, BSF=0 prunes every remaining bound
        before the leaf budget is exhausted."""
        state = make_state(index, corpus[10], k=1, l_max=1000)
        _approx_knn(state)
        assert state.profile.approx_leaves < index.num_leaves

    def test_results_populated_with_k_answers(self, index):
        query = make_random_walks(1, 32, seed=192)[0]
        state = make_state(index, query, k=5, l_max=3)
        _approx_knn(state)
        distances, positions = state.results.items()
        assert distances.shape == (5,)
        assert np.all(np.diff(distances) >= 0)

    def test_visits_in_ascending_bound_order_leftmost_first(self, index):
        query = make_random_walks(1, 32, seed=192)[0]
        state = make_state(index, query, l_max=6)
        _approx_knn(state)
        keys = [(state.bounds[leaf], leaf) for leaf in state.visited]
        assert keys == sorted(keys)
        assert state.profile.approx_leaves == len(state.visited)


def leaf_at_a_time(state, limit):
    """Algorithm 11 one leaf per read and kernel call: the reference the
    grouped phase 1 must reproduce visit for visit and merge for merge."""
    table = state.table
    for leaf in np.argsort(state.bounds, kind="stable")[:limit].tolist():
        if state.bounds[leaf] > state.results.bsf_squared:
            break
        state.visited.append(leaf)
        state.results.refresh()
        start, size = int(table.positions[leaf]), int(table.sizes[leaf])
        squared, _ = early_abandon_squared(
            state.query, state.lrd.read_range(start, size), state.results.bsf_squared
        )
        state.results.update_batch_squared(squared, np.arange(start, start + size))
    state.profile.approx_leaves = len(state.visited)


def record_reads(monkeypatch, lrd) -> list:
    """Record the file positions of every row ``lrd`` reads from now on."""
    positions = []
    read_range = lrd.read_range

    def recording(position, count, out=None):
        positions.append(extent_rows(np.atleast_1d(position), np.atleast_1d(count)))
        return read_range(position, count, out=out)

    monkeypatch.setattr(lrd, "read_range", recording)
    return positions


def split_reads(index, state, positions) -> tuple:
    """Phase 1's read rule, checked against the rows it read: whole
    leaves, each once; the first visit always; no visited leaf skipped
    that had a row with unscaled LB_SAX² below phase 1's final BSF²
    (the BSF² of its group was at least that); and every leaf read but
    not visited is a cut group tail, later in visit order than every
    visit.  Returns the rows of the visited leaves read and of that tail.
    """
    table = index._table
    rows = np.concatenate([np.empty(0, dtype=np.int64), *positions])
    read = np.unique(table.leaf_of(rows))
    assert len(np.unique(rows)) == len(rows) == int(table.sizes[read].sum())
    assert state.visited[0] in read
    skipped = np.setdiff1d(state.visited, read)
    if len(skipped):
        _, lb_squared = index.signatures.screen(
            state.gap_tables, np.inf, state.query.shape[0], rows=table.rows(skipped)
        )
        assert (lb_squared >= state.results.bsf_squared).all()
    tail = np.setdiff1d(read, state.visited)
    later = np.argsort(state.bounds, kind="stable")[len(state.visited):]
    assert np.isin(tail, later).all()
    kept = np.intersect1d(read, state.visited)
    return int(table.sizes[kept].sum()), int(table.sizes[tail].sum())


def linked_results(k, bsf_squared):
    """A shard-style result set whose global bound starts at ``bsf_squared``."""
    link = ProcessBsfVector().cell(0)
    link.publish(bsf_squared)
    return LinkedResultSet(k, link)


class TestGroupedPhaseOne:
    """Phase 1 reads and evaluates groups of leaves but must visit, stop
    and merge exactly as the leaf-at-a-time walk does."""

    @pytest.fixture(scope="class")
    def queries(self, corpus):
        rng = np.random.default_rng(206)
        near = corpus[::150] + 0.2 * rng.standard_normal((6, 32))
        return np.vstack([corpus[7:8], near, make_random_walks(3, 32, seed=207)])

    @staticmethod
    def _pair(index, query, k, results=None, **options):
        grouped = make_state(index, query, k=k, **options)
        reference = make_state(index, query, k=k, **options)
        if results is not None:
            grouped.results, reference.results = results(), results()
        return grouped, reference

    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    @pytest.mark.parametrize("k", [1, 5, 60], ids=["k1", "k5", "k-above-leaf"])
    @pytest.mark.parametrize("l_max", [1, 2, 5, 1000])
    def test_visits_and_merges_equal_the_leaf_walk(
        self, index, queries, l_max, k, epsilon, monkeypatch
    ):
        for query in queries:
            grouped, reference = self._pair(index, query, k, l_max=l_max, epsilon=epsilon)
            before = index._lrd.stats.snapshot()
            with monkeypatch.context() as patch:
                positions = record_reads(patch, index._lrd)
                _approx_knn(grouped)
            read = index._lrd.stats.snapshot() - before
            leaf_at_a_time(reference, l_max)
            assert grouped.visited == reference.visited
            assert grouped.profile.approx_leaves == reference.profile.approx_leaves
            assert grouped.results.bsf_squared == reference.results.bsf_squared
            for got, want in zip(grouped.results.items(), reference.results.items()):
                np.testing.assert_array_equal(got, want)
            # Every row read was evaluated: the visited leaves the screen
            # kept plus a group's cut tail, which is accessed but not visited.
            profile = grouped.profile
            rows_read = read.bytes_read // index._lrd.record_size
            assert profile.series_accessed == profile.distance_computations == rows_read
            kept_rows, tail_rows = split_reads(index, grouped, positions)
            assert rows_read == kept_rows + tail_rows

    @pytest.mark.parametrize("k", [1, 5, 60], ids=["k1", "k5", "k-above-leaf"])
    @pytest.mark.parametrize("l_max", [1, 2, 5, 1000])
    def test_nosax_reads_every_visited_leaf(self, index, queries, l_max, k):
        """The NoSAX ablation has no words to screen with: phase 1 reads
        every leaf it visits, and still visits and merges as the walk."""
        for query in queries:
            grouped, reference = self._pair(index, query, k, l_max=l_max, use_sax=False)
            before = index._lrd.stats.snapshot()
            _approx_knn(grouped)
            read = index._lrd.stats.snapshot() - before
            leaf_at_a_time(reference, l_max)
            assert grouped.visited == reference.visited
            assert grouped.results.bsf_squared == reference.results.bsf_squared
            for got, want in zip(grouped.results.items(), reference.results.items()):
                np.testing.assert_array_equal(got, want)
            profile = grouped.profile
            rows_read = read.bytes_read // index._lrd.record_size
            assert profile.series_accessed == profile.distance_computations == rows_read
            visited_rows = int(index._table.sizes[grouped.visited].sum())
            assert rows_read >= visited_rows

    def test_linked_result_set(self, index, queries):
        """A finite global bound from the start: grouping begins at the
        first visit and every stop test reads the link."""
        for query in queries:
            plain = make_state(index, query, k=5, l_max=1000)
            _approx_knn(plain)
            for factor in (0.5, 1.0, 4.0):
                bsf = plain.results.bsf_squared * factor
                grouped, reference = self._pair(
                    index, query, 5, results=lambda: linked_results(5, bsf), l_max=1000
                )
                _approx_knn(grouped)
                leaf_at_a_time(reference, 1000)
                assert grouped.visited == reference.visited
                assert grouped.results.bsf_squared == reference.results.bsf_squared
                for got, want in zip(grouped.results.items(), reference.results.items()):
                    np.testing.assert_array_equal(got, want)

    @staticmethod
    def _capped_walks(index, queries, monkeypatch, **options) -> dict:
        """Phase 1 of every query at ``_CHUNK_ROWS`` = 200, recording each
        kernel call's rows, each group read's starts and every row read."""
        from repro.core import query as query_module

        monkeypatch.setattr(query_module, "_CHUNK_ROWS", 200)
        kernel = query_module.early_abandon_squared
        blocks = []

        def recording(query, data, cutoff_squared, norms=None):
            blocks.append(data.shape[0])
            return kernel(query, data, cutoff_squared, norms=norms)

        monkeypatch.setattr(query_module, "early_abandon_squared", recording)
        reads = []
        read_range = index._lrd.read_range

        def recording_read(position, count, out=None):
            if isinstance(position, np.ndarray):  # a group: one call
                reads.append(position.copy())
            return read_range(position, count, out=out)

        monkeypatch.setattr(index._lrd, "read_range", recording_read)
        walks = dict(visits=0, accessed=0, visited_rows=0, kept_rows=0, tail_rows=0)
        for query in queries:
            state = make_state(index, query, k=5, l_max=1000, **options)
            with monkeypatch.context() as patch:
                positions = record_reads(patch, index._lrd)
                _approx_knn(state)
            walks["visits"] += len(state.visited)
            walks["accessed"] += state.profile.series_accessed
            walks["visited_rows"] += int(index._table.sizes[state.visited].sum())
            kept_rows, tail_rows = split_reads(index, state, positions)
            walks["kept_rows"] += kept_rows
            walks["tail_rows"] += tail_rows
        assert max(blocks) <= 200 and len(blocks) < walks["visits"]
        assert any(len(starts) > 1 for starts in reads)
        for starts in reads:
            assert np.all(np.diff(starts) > 0)  # read in file order
        walks["blocks"] = blocks
        return walks

    def test_groups_are_capped_and_share_the_refinement_reads(
        self, index, queries, monkeypatch
    ):
        """At most ``_CHUNK_ROWS`` rows per kernel call, one read per run of
        file-adjacent leaves, and fewer kernel calls than visits; the rows
        read are the visited leaves the screen kept plus cut tails."""
        walks = self._capped_walks(index, queries, monkeypatch)
        accessed = walks["accessed"]
        assert sum(walks["blocks"]) == accessed == walks["kept_rows"] + walks["tail_rows"]
        assert walks["kept_rows"] < walks["visited_rows"]  # some visit was skipped

    def test_nosax_groups_read_every_visited_leaf(self, index, queries, monkeypatch):
        """The same walks under the NoSAX ablation: nothing is skipped."""
        walks = self._capped_walks(index, queries, monkeypatch, use_sax=False)
        accessed, visited_rows = walks["accessed"], walks["visited_rows"]
        assert sum(walks["blocks"]) == accessed > visited_rows  # some tail was cut

    def test_answers_and_paths_equal_the_leaf_walk(self, index, queries, monkeypatch):
        """The whole pipeline, serial and batched, with the leaf-at-a-time
        walk swapped in for phase 1: same answers, paths and counters."""
        from repro.core import batch_query, query as query_module

        configs = [
            index.config.with_options(l_max=l_max, epsilon=epsilon)
            for l_max in (1, 5)
            for epsilon in (0.0, 0.2)
        ]
        grouped = [
            [index.knn(q, k=5, config=c) for q in queries] for c in configs
        ] + [list(index.knn_batch(queries, k=5, config=c)) for c in configs]

        def reference(state):
            leaf_at_a_time(state, state.config.l_max)

        def reference_block(states):
            for state in states:
                reference(state)

        monkeypatch.setattr(query_module, "_approx_knn", reference)
        monkeypatch.setattr(batch_query, "_approx_knn", reference)
        monkeypatch.setattr(query_module, "_approx_knn_lockstep", reference_block)
        monkeypatch.setattr(batch_query, "_approx_knn_lockstep", reference_block)
        expected = [
            [index.knn(q, k=5, config=c) for q in queries] for c in configs
        ] + [list(index.knn_batch(queries, k=5, config=c)) for c in configs]
        for got_run, want_run in zip(grouped, expected):
            for got, want in zip(got_run, want_run):
                np.testing.assert_array_equal(got.distances, want.distances)
                np.testing.assert_array_equal(got.positions, want.positions)
                for name in (
                    "path", "approx_leaves", "candidate_leaves", "candidate_series",
                    "eapca_pruning", "sax_pruning",
                ):
                    assert getattr(got.profile, name) == getattr(want.profile, name)


#: The phase-1 counters a lockstep round must leave as the query's own
#: walk leaves them.
_PHASE1_COUNTERS = (
    "approx_leaves", "series_accessed", "distance_computations", "points_compared",
)


def _phase1_spy(monkeypatch) -> list:
    """Record, per call, what phase 1 left in each query's state: its
    visits, BSF², result items and phase-1 counters (one list of dicts
    per call, whichever walk ran it), and each block call's rounds."""
    from repro.core import batch_query

    calls = []
    single, lockstep = batch_query._approx_knn, batch_query._approx_knn_lockstep

    def snapshot(states, rounds):
        calls.append([
            dict(
                visited=list(state.visited),
                bsf_squared=state.results.bsf_squared,
                items=state.results.items(),
                rounds=rounds,
                **{name: getattr(state.profile, name) for name in _PHASE1_COUNTERS},
            )
            for state in states
        ])
        return rounds

    monkeypatch.setattr(batch_query, "_approx_knn", lambda state: snapshot([state], single(state)))
    monkeypatch.setattr(
        batch_query, "_approx_knn_lockstep", lambda states: snapshot(states, lockstep(states))
    )
    return calls


def _assert_same_phase1(got: dict, want: dict) -> None:
    assert got["visited"] == want["visited"]
    assert got["bsf_squared"] == want["bsf_squared"]
    for got_part, want_part in zip(got["items"], want["items"]):
        np.testing.assert_array_equal(got_part, want_part)
    for name in _PHASE1_COUNTERS:
        assert got[name] == want[name], name


class TestLockstepPhaseOne:
    """Phase 1 of a block runs in lockstep rounds (one screen, one union
    read and masked kernel calls per round), but each query must visit,
    stop, merge and count exactly as its own Q = 1 call and the
    leaf-at-a-time walk do."""

    @pytest.fixture(scope="class")
    def block(self, corpus):
        """64 queries: a dataset member, noisy members, random walks, and
        rows 2 and 3 identical."""
        rng = np.random.default_rng(208)
        picked = rng.choice(len(corpus), 40, replace=False)
        near = corpus[picked] + 0.3 * rng.standard_normal((40, 32))
        queries = np.vstack([corpus[7:8], near, make_random_walks(22, 32, seed=209)])
        return np.vstack([queries[:3], queries[2:3], queries[3:]]).astype(np.float32)

    @staticmethod
    def _run(index, queries, k, config, phase1_only=True):
        from repro.core.batch_query import exact_knn_batch

        return exact_knn_batch(
            queries, k, config, index._table, index._lrd, index.signatures,
            index.num_series, index._norms, phase1_only=phase1_only,
        )

    @pytest.mark.parametrize("use_sax", [True, False], ids=["sax", "nosax"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.2])
    @pytest.mark.parametrize("k", [1, 5, 60], ids=["k1", "k5", "k-above-leaf"])
    @pytest.mark.parametrize("l_max", [1, 2, 5, 1000])
    def test_each_query_walks_as_alone(
        self, index, block, l_max, k, epsilon, use_sax, monkeypatch
    ):
        monkeypatch.setattr(query_module, "_CHUNK_ROWS", 200)
        cuts = query_module._union_cuts
        chunks = []
        monkeypatch.setattr(
            query_module, "_union_cuts",
            lambda *args: chunks.append(len(cuts(*args)) - 1) or cuts(*args),
        )
        calls = _phase1_spy(monkeypatch)
        config = index.config.with_options(l_max=l_max, epsilon=epsilon, use_sax=use_sax)
        alone = []
        for query in block:
            calls.clear()
            answer = self._run(index, query[None], k, config)[0]
            ((mine,),) = calls
            reference = make_state(
                index, query, k=k, l_max=l_max, epsilon=epsilon, use_sax=use_sax
            )
            leaf_at_a_time(reference, l_max)
            assert mine["visited"] == reference.visited
            assert mine["approx_leaves"] == reference.profile.approx_leaves
            assert mine["bsf_squared"] == reference.results.bsf_squared
            for got, want in zip(mine["items"], reference.results.items()):
                np.testing.assert_array_equal(got, want)
            alone.append((mine, answer))
        for size in (2, 7, 64):
            for phase1_only in (True, False):
                calls.clear()
                chunks.clear()
                answers = self._run(index, block[:size], k, config, phase1_only)
                (walked,) = calls
                assert len(walked) == size
                for got, (want, answer) in zip(walked, alone[:size]):
                    _assert_same_phase1(got, want)
                    if phase1_only:
                        np.testing.assert_array_equal(got["items"][0], answer.distances)
                if size == 64 and l_max > 1:
                    # Several rounds, and a round cut into several chunks
                    # (counted where phase 1 alone cuts chunks).
                    assert walked[0]["rounds"] >= 2
                    assert max(chunks) >= 2 or not phase1_only
        singles = (self._run(index, q[None], k, config, False)[0] for q in block)
        for got, want in zip(answers, singles):
            if epsilon == 0.0:
                np.testing.assert_array_equal(got.distances, want.distances)
                np.testing.assert_array_equal(got.positions, want.positions)

    def test_block_reads_no_more_than_its_queries_alone(self, index, block):
        """A block's phase 1 reads each leaf that several queries keep
        in a round once: no more LRDFile bytes than its queries' Q = 1
        calls together, and here fewer."""
        config = index.config.with_options(l_max=1000)
        lrd = index._lrd
        before = lrd.stats.snapshot()
        for query in block:
            self._run(index, query[None], 5, config)
        alone = (lrd.stats.snapshot() - before).bytes_read
        before = lrd.stats.snapshot()
        self._run(index, block, 5, config)
        together = (lrd.stats.snapshot() - before).bytes_read
        assert together < alone, (together, alone)

    def test_identical_queries_read_each_leaf_once(self, index, block, monkeypatch):
        """Two identical queries in one block read each of their phase-1
        leaves once: the rows one of them reads alone."""
        monkeypatch.setattr(query_module, "_CHUNK_ROWS", 200)
        config = index.config.with_options(l_max=1000)
        reads = {}
        for name, queries in (("alone", block[2:3]), ("twice", block[2:4])):
            with monkeypatch.context() as patch:
                positions = record_reads(patch, index._lrd)
                self._run(index, queries, 5, config)
            reads[name] = np.concatenate(positions)
        assert len(np.unique(reads["twice"])) == len(reads["twice"])
        np.testing.assert_array_equal(np.sort(reads["twice"]), np.sort(reads["alone"]))

    def test_cache_lookups_are_charged_to_the_first_query(self, index, block):
        """With a leaf cache, a block's phase 1 shares its reads, so its
        lookups all go to the block's first query (as the refinement
        walk's do) and the other profiles count none; a Q = 1 call
        counts its own."""
        config = index.config.with_options(l_max=5)
        cached = HerculesIndex.open(index.directory, cache_bytes=1 << 20)
        try:
            for _ in range(2):  # cold, then warm
                before = cached.leaf_cache.snapshot()
                answers = self._run(cached, block[:7], 5, config)
                delta = cached.leaf_cache.snapshot() - before
                first, *others = [a.profile for a in answers]
                assert (first.cache_hits, first.cache_misses) == (delta.hits, delta.misses)
                assert all(p.cache_hits == p.cache_misses == 0 for p in others)
            assert delta.hits > 0
            before = cached.leaf_cache.snapshot()
            (alone,) = self._run(cached, block[3:4], 5, config)
            delta = cached.leaf_cache.snapshot() - before
            assert (alone.profile.cache_hits, alone.profile.cache_misses) == (
                delta.hits, delta.misses,
            )
            assert delta.hits > 0
        finally:
            cached.close()


class TestCandidateLeafPhase:
    def test_lclist_sorted_by_file_position(self, index):
        query = make_random_walks(1, 32, seed=193)[0]
        state = make_state(index, query, l_max=1)
        _approx_knn(state)
        lclist = _find_candidate_leaves(state)
        assert lclist.dtype.kind == "i" and lclist.size > 0
        positions = index._table.positions[lclist].tolist()
        assert positions == sorted(positions)

    def test_candidates_exclude_approx_visited_leaves(self, index, monkeypatch):
        """Leaves popped in phase 1 are not re-examined in phase 2 (the
        paper: 'nodes that were visited by algorithm 11 are not accessed
        again')."""
        query = make_random_walks(1, 32, seed=194)[0]
        state = make_state(index, query, l_max=4)

        read = []
        original = state.lrd.read_range

        def tracking(position, count, out=None):
            read.append((position, count))
            return original(position, count, out=out)

        monkeypatch.setattr(state.lrd, "read_range", tracking)
        _approx_knn(state)
        lclist = _find_candidate_leaves(state)
        assert state.visited and not set(lclist.tolist()) & set(state.visited)
        # Phase 1 read whole leaves, each once: every visited leaf, and
        # beyond them only a group's tail the stop test cut.
        table = index._table
        rows = np.concatenate(
            [extent_rows(np.atleast_1d(p), np.atleast_1d(c)) for p, c in read]
        )
        assert len(set(rows.tolist())) == len(rows) == state.profile.series_accessed
        leaves = np.unique(table.leaf_of(rows))
        np.testing.assert_array_equal(np.sort(rows), table.rows(leaves))
        assert set(state.visited) <= set(leaves.tolist())

    def test_bounds_below_bsf(self, index):
        query = make_random_walks(1, 32, seed=195)[0]
        state = make_state(index, query, l_max=2)
        _approx_knn(state)
        bsf_squared = state.results.bsf_squared
        lclist = _find_candidate_leaves(state)
        assert np.all(state.bounds[lclist] < bsf_squared)
        # ... and nothing below BSF² was left out, bar the visited leaves.
        rest = np.setdiff1d(np.arange(index.num_leaves), lclist)
        pruned = np.setdiff1d(rest, state.visited)
        assert np.all(state.bounds[pruned] >= bsf_squared)


class TestPathSelectionBoundaries:
    def test_threshold_zero_never_takes_eapca_skipseq(self, index):
        query = make_random_walks(1, 32, seed=196)[0]
        answer = index.knn(
            query, k=1, config=index.config.with_options(eapca_th=0.0, sax_th=0.0)
        )
        assert answer.profile.path in ("full-four-phase", "approx-only")

    def test_threshold_one_forces_skip_sequential(self, index):
        query = make_random_walks(1, 32, seed=197)[0]
        answer = index.knn(
            query, k=1, config=index.config.with_options(eapca_th=1.0)
        )
        assert answer.profile.path in ("eapca-skipseq", "approx-only")

    def test_sax_threshold_one_forces_sax_skipseq(self, index):
        query = make_random_walks(1, 32, seed=198)[0]
        answer = index.knn(
            query,
            k=1,
            config=index.config.with_options(eapca_th=0.0, sax_th=1.0),
        )
        assert answer.profile.path in ("sax-skipseq", "approx-only")

    def test_all_paths_agree_on_answers(self, index, corpus):
        query = make_random_walks(1, 32, seed=199)[0]
        d = np.sqrt(
            ((corpus.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        expected = np.sort(d)[:4]
        for overrides in (
            {"eapca_th": 0.0, "sax_th": 0.0},
            {"eapca_th": 1.0},
            {"eapca_th": 0.0, "sax_th": 1.0},
            {"use_sax": False},
        ):
            answer = index.knn(
                query, k=4, config=index.config.with_options(**overrides)
            )
            np.testing.assert_allclose(answer.distances, expected, atol=1e-5)


class TestPhaseTiming:
    def test_phase_times_populated_and_bounded(self, index):
        query = make_random_walks(1, 32, seed=205)[0]
        profile = index.knn(query, k=3).profile
        assert profile.time_approx > 0
        assert profile.time_candidates >= 0
        assert profile.time_refine >= 0
        phase_sum = (
            profile.time_approx + profile.time_candidates + profile.time_refine
        )
        assert phase_sum <= profile.time_total + 1e-6

    def test_approx_only_path_has_no_refine_work(self, index, corpus):
        """A self-query that prunes everything spends ~nothing refining."""
        answer = index.knn(corpus[3], k=1)
        if answer.profile.path == "approx-only":
            assert answer.profile.time_refine < answer.profile.time_total


class TestPerQueryIO:
    @pytest.mark.parametrize("mode", ["knn", "progressive"])
    def test_io_does_not_depend_on_the_previous_query(self, index, mode):
        """A one-query call classifies its reads as random or sequential
        from its own reads alone: a predecessor whose last read ended
        exactly where this query's first read starts does not turn that
        first read into a sequential one."""
        leaf = index.leaves[4]
        # A member of the leaf routes to it, so phase 1 reads it first.
        query = index.get_series(leaf.file_position)

        def run(series):
            if mode == "knn":
                return index.knn(series, k=5).profile.io
            *_, final = index.knn_progressive(series, k=5)
            return final.profile.io

        predecessors = (
            lambda: index._lrd.read_range(0, leaf.file_position),  # ends at the leaf
            lambda: index._lrd.read_range(0, 1),
            lambda: run(index.get_series(index.num_series - 1)),
        )
        snapshots = []
        for predecessor in predecessors:
            predecessor()
            snapshots.append(run(query))
        assert snapshots[0].random_seeks >= 1  # the first read is a seek
        assert all(snapshot == snapshots[0] for snapshot in snapshots)


class TestEdgeCases:
    def test_k_equal_to_dataset_size(self, tmp_path):
        data = make_random_walks(30, 16, seed=200)
        config = HerculesConfig(
            leaf_capacity=10,
            sax_segments=8,
            l_max=2,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        query = make_random_walks(1, 16, seed=201)[0]
        answer = index.knn(query, k=30)
        assert answer.k == 30
        d = np.sqrt(
            ((data.astype(np.float64) - query.astype(np.float64)) ** 2).sum(1)
        )
        np.testing.assert_allclose(answer.distances, np.sort(d), atol=1e-5)
        index.close()

    def test_duplicate_series_all_reported(self, tmp_path):
        base = make_random_walks(1, 16, seed=202)
        data = np.concatenate([np.tile(base, (5, 1)),
                               make_random_walks(60, 16, seed=203)])
        config = HerculesConfig(
            leaf_capacity=20,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        answer = index.knn(base[0], k=5)
        np.testing.assert_allclose(answer.distances, np.zeros(5), atol=1e-5)
        assert len(set(answer.positions.tolist())) == 5  # distinct copies
        index.close()

    def test_single_series_dataset(self, tmp_path):
        data = make_random_walks(1, 16, seed=204)
        config = HerculesConfig(
            leaf_capacity=10,
            sax_segments=8,
        )
        index = HerculesIndex.build(data, config, directory=tmp_path / "idx")
        answer = index.knn(data[0], k=1)
        assert answer.distances[0] == pytest.approx(0.0, abs=1e-6)
        index.close()


class TestDuplicateTies:
    """Every series stored twice and k odd: the k-th and (k+1)-th
    neighbours are exact duplicates, so each query ends on a tie at the
    k-th distance, and with a 7-row refinement chunk the twins keep
    landing on either side of a chunk boundary.  Which twin is reported
    may differ between engines (see ``ResultSet``); the distances may
    not, and every reported position must hold a series at exactly its
    reported distance."""

    K = 5

    @pytest.fixture(scope="class")
    def twins(self):
        return np.repeat(make_random_walks(300, 32, seed=197), 2, axis=0)

    @pytest.fixture(scope="class")
    def queries(self, twins):
        rng = np.random.default_rng(198)
        near = twins[::75] + 0.3 * rng.standard_normal((8, 32))
        return np.vstack([near, rng.standard_normal((4, 32))]).astype(np.float32)

    @pytest.fixture(scope="class")
    def engines(self, twins, tmp_path_factory):
        from repro import ShardedIndex

        config = HerculesConfig(
            leaf_capacity=20, l_max=1,
            sax_segments=8,
        )
        root = tmp_path_factory.mktemp("twins")
        plain = HerculesIndex.build(twins, config, directory=root / "plain")
        sharded = ShardedIndex.build(
            twins,
            config.with_options(num_shards=2, shard_workers=1),
            directory=root / "sharded",
        )
        yield plain, sharded
        plain.close()
        sharded.close()

    @staticmethod
    def _check(index, query, answer, twins, k):
        truth = np.sort(
            np.sqrt(np.square(twins.astype(np.float64) - query).sum(axis=1))
        )[:k]
        np.testing.assert_allclose(answer.distances, truth, rtol=1e-9)
        assert len(set(answer.positions.tolist())) == k
        for distance, position in zip(answer.distances, answer.positions):
            stored = index.get_series(int(position)).astype(np.float64)
            actual = np.sqrt(np.square(stored - query).sum())
            np.testing.assert_allclose(actual, distance, rtol=1e-9)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["phase4", "skipseq"])
    def test_every_engine_agrees_with_the_oracle(
        self, engines, twins, queries, adaptive, monkeypatch
    ):
        from repro.core import query as query_module
        from repro.core.results import ResultSet

        monkeypatch.setattr(query_module, "_CHUNK_ROWS", 7)
        plain, sharded = engines
        k = self.K
        # eapca_th=1 sends every adaptive query down the leaf scan.
        options = dict(adaptive_thresholds=adaptive, eapca_th=1.0)
        config = plain.config.with_options(**options)

        merges = []
        update = ResultSet.update_batch_squared

        def recording(self, distances_squared, positions):
            merges.append((np.array(distances_squared), np.array(positions)))
            return update(self, distances_squared, positions)

        monkeypatch.setattr(ResultSet, "update_batch_squared", recording)
        answers = [plain.knn(q, k=k, config=config) for q in queries]
        monkeypatch.setattr(ResultSet, "update_batch_squared", update)
        # The premise, where chunks can cut between rows (a leaf scan's
        # chunks are whole leaves and twins share a leaf): some twin pair
        # was offered in two merges, consecutive chunks, at one distance.
        assert adaptive or any(
            before_p[-1] + 1 == after_p[0]
            and before_d[-1] == after_d[0]
            and np.isfinite(after_d[0])
            for (before_d, before_p), (after_d, after_p) in zip(merges, merges[1:])
        )

        for query, answer in zip(queries, answers):
            assert answer.profile.path == (
                "eapca-skipseq" if adaptive else "full-four-phase"
            )
            self._check(plain, query, answer, twins, k)
            sharded_config = sharded.config.with_options(**options)
            self._check(
                sharded, query, sharded.knn(query, k=k, config=sharded_config), twins, k
            )
        for query, answer in zip(queries, plain.knn_batch(queries, k=k, config=config)):
            self._check(plain, query, answer, twins, k)


class TestRefineRuns:
    """What the one refinement routine promises its four callers."""

    @staticmethod
    def _hard_query():
        return np.random.default_rng(199).standard_normal(32).astype(np.float32)

    def test_chunks_are_capped_and_reads_coalesced(self, index, monkeypatch):
        from repro.core import query as query_module

        kernel = query_module.early_abandon_squared
        blocks = []

        def recording(query, data, cutoff_squared, norms=None):
            blocks.append(data.shape[0])
            return kernel(query, data, cutoff_squared, norms=norms)

        monkeypatch.setattr(query_module, "early_abandon_squared", recording)
        config = index.config.with_options(l_max=1, eapca_th=1.0)
        answer = index.knn(self._hard_query(), k=3, config=config)
        profile = answer.profile
        assert profile.path == "eapca-skipseq"
        # Whole leaves (<= 45 rows here) packed up to the cap, never past it.
        assert max(blocks) <= query_module._CHUNK_ROWS
        assert len(blocks) < profile.candidate_leaves + profile.approx_leaves
        assert sum(blocks) == profile.distance_computations == profile.series_accessed
        # One read per run of adjacent leaves: fewer reads than leaves, and
        # not a byte more than the rows refined.
        assert profile.io.read_calls < profile.candidate_leaves + profile.approx_leaves
        assert profile.io.bytes_read == profile.series_accessed * 32 * 4

    @pytest.mark.parametrize(
        "path, options",
        [
            ("full-four-phase", {"adaptive_thresholds": False}),
            ("nosax-leaves", {"eapca_th": 0.0, "use_sax": False}),
        ],
    )
    def test_knn_starts_no_thread(self, index, monkeypatch, path, options):
        """The walk runs on the calling thread: a ``knn`` on a refining
        path leaves no thread behind and starts none, not even briefly."""
        import threading

        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        config = index.config.with_options(l_max=1, **options)
        threads_before = set(threading.enumerate())
        answer = index.knn(self._hard_query(), k=3, config=config)
        assert answer.profile.path == path
        assert answer.profile.distance_computations > 0
        assert set(threading.enumerate()) <= threads_before
        assert started == []

    def test_phase4_reads_each_sclist_run_once_in_one_call(self, index, monkeypatch):
        """The full four-phase path: SCList (one chunk here) is one
        ``read_range`` call, one file read per run of adjacent candidates,
        and the injector sees every read IOStats records."""
        from repro.storage import faults

        query = self._hard_query()
        options = dict(l_max=2, adaptive_thresholds=False)
        state = make_state(index, query, **options)
        _approx_knn(state)
        sclist, _ = state.sax.screen(
            state.gap_tables,
            state.results.bsf_squared,
            query.shape[0],
            prune_factor=state.prune_factor,
            rows=index._table.rows(_find_candidate_leaves(state)),
        )
        assert 1 < len(sclist) <= query_module._CHUNK_ROWS
        calls = []
        read_range = index._lrd.read_range

        def recording(position, count, out=None):
            calls.append((np.atleast_1d(position).copy(), np.atleast_1d(count).copy()))
            return read_range(position, count, out=out)

        monkeypatch.setattr(index._lrd, "read_range", recording)
        with faults.inject([]) as injector:
            answer = index.knn(query, k=3, config=index.config.with_options(**options))
        assert answer.profile.path == "full-four-phase"
        phase4 = [i for i, (starts, _) in enumerate(calls) if np.array_equal(starts, sclist)]
        assert phase4 == [len(calls) - 1]  # one call, after phase 1's
        assert (calls[-1][1] == 1).all()
        runs = [len(adjacent_runs(starts, sizes[:-1])[0]) for starts, sizes in calls]
        assert runs[-1] == len(adjacent_runs(sclist)[0]) > 1
        assert injector.counts["read"] == answer.profile.io.read_calls == sum(runs)

    def test_reads_stay_leaf_granular_under_a_cache(self, index, monkeypatch):
        from repro.storage.cache import LeafCache

        extents = set(
            zip(index._table.positions.tolist(), index._table.sizes.tolist())
        )
        keys = []
        cache = LeafCache(1 << 20)
        get_or_load = cache.get_or_load

        def recording(key, loader):
            keys.append(key)
            return get_or_load(key, loader)

        monkeypatch.setattr(cache, "get_or_load", recording)
        monkeypatch.setattr(index._lrd, "cache", cache)
        config = index.config.with_options(l_max=1, eapca_th=1.0)
        first = index.knn(self._hard_query(), k=3, config=config)
        again = index.knn(self._hard_query(), k=3, config=config)
        assert first.profile.path == "eapca-skipseq" and keys
        assert set(keys) <= extents  # a merged run would be no leaf's block
        assert again.profile.cache_hits == len(keys) // 2
        assert again.profile.io.read_calls == 0
        np.testing.assert_array_equal(first.distances, again.distances)
