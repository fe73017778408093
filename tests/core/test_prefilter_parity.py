"""Gates for the LB_SAX pass ahead of the access-path decision.

The pass prunes with a valid lower bound against the live BSF², so every
answer must equal a NumPy float64 scan of the stored rows: distances,
and positions (LRDFile positions — the scan runs over the rows in file
order, so it reports the same ones).  The pass's own bookkeeping — the
LCList trim and the ``prefilter_*`` counters — is checked against the
pipeline's own phases.
"""

import numpy as np
import pytest

from repro.core import HerculesConfig, HerculesIndex, ShardedIndex
from repro.core.query import (
    _approx_knn,
    _find_candidate_leaves,
    _search_states,
    _trim_to_candidates,
)
from repro.types import as_series

from ..conftest import make_random_walks

_LENGTH = 64


def _config(**overrides):
    return HerculesConfig(leaf_capacity=20, **overrides)


@pytest.fixture(scope="module")
def data():
    return make_random_walks(400, _LENGTH, seed=17)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(3)
    noisy = data[:6] + 0.3 * rng.standard_normal((6, _LENGTH))
    hard = rng.standard_normal((3, _LENGTH))
    copies = data[100:103]
    return np.vstack([noisy, hard, copies]).astype(np.float32)


@pytest.fixture(scope="module")
def index(data, tmp_path_factory):
    directory = tmp_path_factory.mktemp("prefilter-parity") / "index"
    built = HerculesIndex.build(data, _config(), directory=directory)
    yield built
    built.close()


def _stored(index):
    """Every stored row, in LRDFile (answer-position) order, as float64."""
    return np.stack(
        [index.get_series(p) for p in range(index.num_series)]
    ).astype(np.float64)


@pytest.fixture(scope="module")
def stored(index):
    return _stored(index)


def _assert_scan_answer(answer, stored, query, k):
    """``answer`` is the k nearest stored rows of a float64 scan."""
    squared = ((stored - query.astype(np.float64)) ** 2).sum(axis=1)
    order = np.argsort(squared, kind="stable")[:k]
    np.testing.assert_array_equal(answer.positions, order)
    np.testing.assert_allclose(answer.distances, np.sqrt(squared[order]), rtol=1e-9)


def _state(index, query, k, config):
    """One query's search state, from the pipeline's own front half."""
    (state,) = _search_states(
        as_series(query)[None], k, config, index._table, index._lrd,
        index.signatures, index.num_series, index._norms,
    )
    return state


def _lclist(index, query, k, config):
    """Phase 2's (untrimmed) LCList for one query, from the pipeline's
    own phases."""
    state = _state(index, query, k, config)
    _approx_knn(state)
    return _find_candidate_leaves(state)


class TestExactParity:
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_bit_for_bit(self, index, stored, queries, k):
        for query in queries:
            _assert_scan_answer(index.knn(query, k=k), stored, query, k)

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_bit_for_bit_through_refinement(self, index, stored, queries, adaptive):
        # The default L_max covers this whole small tree; a short phase 1
        # leaves work for the LB_SAX pass, phase 4 and the scans.
        config = index.config.with_options(l_max=2, adaptive_thresholds=adaptive)
        paths = set()
        for query in queries:
            answer = index.knn(query, k=5, config=config)
            _assert_scan_answer(answer, stored, query, 5)
            paths.add(answer.profile.path)
        assert "full-four-phase" in paths
        if adaptive:
            assert "eapca-skipseq" in paths

    def test_screen_engages_only_when_enabled(self, index, queries):
        """The pass examines exactly the series of phase 2's LCList — so
        it engages only for a query phase 2 left leaves — and keeps at
        most all of them."""
        # A short phase 1, so that phase 2 leaves candidate leaves (the
        # default L_max covers this whole small tree).
        config = index.config.with_options(l_max=2)
        engaged = 0
        for query in queries:
            profile = index.knn(query, k=5, config=config).profile
            lclist = _lclist(index, query, 5, config)
            assert profile.prefilter_screened == int(index._table.sizes[lclist].sum())
            assert 0 <= profile.prefilter_survivors <= profile.prefilter_screened
            if profile.prefilter_screened:
                engaged += 1
                assert profile.prefilter_pruned_fraction is not None
            else:
                assert profile.prefilter_pruned_fraction is None
            if profile.sax_pruning is not None:
                # SCList is what the pass kept.
                assert profile.candidate_series == profile.prefilter_survivors
        assert engaged

    def test_nosax_runs_no_lb_sax_pass(self, index, stored, queries):
        """The NoSAX ablation prunes with LB_EAPCA alone: no pass, no
        counters, and the scan's answers."""
        config = index.config.with_options(l_max=2, use_sax=False)
        candidates = 0
        for query in queries:
            answer = index.knn(query, k=5, config=config)
            _assert_scan_answer(answer, stored, query, 5)
            assert answer.profile.prefilter_screened == 0
            assert answer.profile.prefilter_survivors == 0
            assert answer.profile.sax_pruning is None
            candidates += answer.profile.candidate_leaves
        assert candidates  # phase 2 left leaves a pass could have trimmed

    @pytest.mark.parametrize("l_max", [1, 2, 80])
    def test_trimmed_lclist_is_the_unique_survivor_leaves(self, index, queries, l_max):
        """The trim takes the run heads of the survivors' (sorted) leaves:
        exactly ``np.unique`` of them, in file order."""
        config = index.config.with_options(l_max=l_max)
        longest = 0
        for k in (1, 5, 25):
            for query in queries:
                state = _state(index, query, k, config)
                _approx_knn(state)
                lclist = _find_candidate_leaves(state)
                positions, _ = state.sax.screen(
                    state.gap_tables,
                    state.results.bsf_squared,
                    _LENGTH,
                    prune_factor=state.prune_factor,
                    rows=index._table.rows(lclist),
                )
                trimmed = _trim_to_candidates(state, lclist, positions)
                np.testing.assert_array_equal(
                    trimmed, np.unique(index._table.leaf_of(positions))
                )
                longest = max(longest, len(trimmed))
        assert longest > 1 or l_max == 80  # the default covers the tree

    def test_screen_only_subtracts_work(self, index, queries):
        """The trimmed LCList is a subset of phase 2's, so refinement
        reads at most phase 2's leaves on top of phase 1's; the path is
        decided on the untrimmed list's EAPCA pruning."""
        config = index.config.with_options(l_max=2)
        sizes = index._table.sizes
        for query in queries:
            profile = index.knn(query, k=5, config=config).profile
            state = _state(index, query, 5, config)
            _approx_knn(state)
            lclist = _find_candidate_leaves(state)
            assert profile.candidate_leaves <= len(lclist)
            assert profile.series_accessed <= int(
                sizes[lclist].sum() + sizes[state.visited].sum()
            )
            assert profile.eapca_pruning == pytest.approx(
                1.0 - len(lclist) / index.num_leaves
            )


class TestOtherModes:
    def test_progressive_converges_to_unfiltered_exact(self, index, stored, queries):
        for query in queries[:4]:
            final = None
            for step in index.knn_progressive(query, k=3):
                final = step
            _assert_scan_answer(final, stored, query, 3)

    def test_approximate_unaffected(self, index, queries):
        # The approximate phase never consults the SAX tier; its answers
        # are real distances of really-stored rows either way.
        for query in queries[:4]:
            answer = index.knn_approx(query, k=3)
            for dist, pos in zip(answer.distances, answer.positions):
                row = index.get_series(int(pos)).astype(np.float64)
                true = float(
                    np.sqrt(((row - query.astype(np.float64)) ** 2).sum())
                )
                assert dist == pytest.approx(true, abs=1e-6)

    def test_epsilon_guarantee_holds_filtered(self, index, stored, queries):
        # Under epsilon-approximate pruning the pass scales its bound by
        # the same prune factor; every distance must stay within (1+eps)
        # of the scan's, with the default phase 1 and a short one.
        eps = 0.1
        for l_max in (index.config.l_max, 2):
            config = index.config.with_options(epsilon=eps, l_max=l_max)
            for query in queries:
                loose = index.knn(query, k=5, config=config)
                squared = ((stored - query.astype(np.float64)) ** 2).sum(axis=1)
                exact = np.sqrt(np.sort(squared)[:5])
                assert (loose.distances <= (1.0 + eps) * exact + 1e-9).all()


class TestShardedParity:
    @pytest.fixture(scope="class", params=[1, 2, 4], ids=["n1", "n2", "n4"])
    def sharded(self, request, data, tmp_path_factory):
        directory = (
            tmp_path_factory.mktemp(f"prefilter-shards{request.param}")
            / "index"
        )
        built = ShardedIndex.build(
            data,
            _config(num_shards=request.param, shard_workers=1),
            directory=directory,
        )
        yield built
        built.close()

    def test_bit_for_bit(self, sharded, queries):
        # Global positions: the scan runs over the shards' rows in order.
        stored = _stored(sharded)
        config = sharded.config.with_options(l_max=2)
        for query in queries:
            _assert_scan_answer(sharded.knn(query, k=5), stored, query, 5)
            _assert_scan_answer(sharded.knn(query, k=5, config=config), stored, query, 5)

    def test_counters_merge_across_shards(self, sharded, data, queries):
        # A hard query after a short phase 1: phase 2 leaves candidate
        # leaves for the early pass to examine.
        answer = sharded.knn(
            queries[6], k=5, config=sharded.config.with_options(l_max=1)
        )
        assert 0 < answer.profile.prefilter_screened <= data.shape[0]
        assert (
            answer.profile.prefilter_survivors
            <= answer.profile.prefilter_screened
        )
        assert answer.profile.prefilter_pruned_fraction is not None
        # num_shards=1 builds a plain index; only the truly sharded
        # answers carry per-shard breakdowns, and the merged profile is
        # their sum.
        shard_answers = getattr(answer, "shard_answers", ())
        if shard_answers:
            for field in ("prefilter_screened", "prefilter_survivors"):
                assert getattr(answer.profile, field) == sum(
                    getattr(shard.profile, field) for _, shard in shard_answers
                )

    def test_matches_single_index_distances(self, sharded, index, queries):
        # Layout differs between a sharded and a single build, so compare
        # distances (value identity), not file positions.
        for query in queries:
            np.testing.assert_allclose(
                sharded.knn(query, k=5).distances,
                index.knn(query, k=5).distances,
                atol=1e-9,
            )
