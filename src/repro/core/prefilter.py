"""The SAX tier: one in-RAM iSAX array and one LB_SAX kernel.

The paper keeps LSDFile — every series' iSAX word — in memory while
queries run and filters the series of the candidate leaves against it
(Algorithm 13).  ParIS+ shows that such a tier is one vectorised
lower-bound kernel over a resident summary array, and this module is
that: :class:`SignatureArray` holds the words once, segment-major (at
full resolution for Hercules, ``>>``-reduced for VA+file's SAX filter
at fewer bits), and
evaluates LB_SAX with the VA-file lookup-table trick: per
segment a ``2^bits``-entry table of squared gaps from the query's PAA
value to each symbol region is built once per query (O(2^bits),
:meth:`SignatureArray.gap_tables`, one call for a whole query block),
then every pass over the query's rows indexes into it, keeping each pass
at O(rows·segments) regardless of cardinality.

Soundness: a reduced-cardinality region contains the full-resolution
region, so the reduced bound is ≤ the full-resolution LB_SAX ≤ the true
Euclidean distance.  Pruning with any valid lower bound against the
monotonically decreasing BSF never changes exact answers.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.summarization.sax import SaxSpace
from repro.types import DISTANCE_DTYPE, SYMBOL_DTYPE

__all__ = ["SignatureArray", "reduce_symbols"]

#: (query, row) pairs per run of :meth:`SignatureArray.screen_batch`: the
#: pass holds a few arrays of this many pairs (~0.2 MB), whatever Q is.
_PASS_PAIRS = 4096


def reduce_symbols(
    full_symbols: np.ndarray, space: SaxSpace, bits: int
) -> np.ndarray:
    """Full-resolution SAX symbols reduced to ``bits`` of cardinality.

    The reduced value is the top ``bits`` bits of each symbol — exactly
    the iSAX prefix an :class:`~repro.summarization.isax.IsaxWord` at
    uniform cardinality ``bits`` would carry.  At full width the input
    is returned as is, not copied.
    """
    if not 1 <= bits <= space.bits_per_symbol:
        raise ValueError(
            f"bits must be in [1, {space.bits_per_symbol}], got {bits}"
        )
    sym = np.asarray(full_symbols)
    shift = space.bits_per_symbol - bits
    reduced = sym >> shift if shift else sym
    return reduced.astype(SYMBOL_DTYPE, copy=False)


class SignatureArray:
    """The memory-resident iSAX array of one index (or shard).

    Holds the symbol matrix segment-major — ``(segments, N)``, each
    segment's symbols contiguous, which is how the LB_SAX pass gathers
    them — plus the precomputed value-region edges of each symbol, so a
    query pays only the per-segment table build and the gathers.
    """

    def __init__(self, reduced: np.ndarray, space: SaxSpace, bits: int) -> None:
        reduced = np.asarray(reduced, dtype=np.uint8)
        if reduced.ndim != 2 or reduced.shape[1] != space.segments:
            raise ValueError(
                f"expected a (N, {space.segments}) reduced-symbol matrix, "
                f"got shape {reduced.shape}"
            )
        #: The one resident copy of the words, transposed once here.
        self._by_segment = np.ascontiguousarray(reduced.T)
        self.space = space
        self.bits = bits
        self.num_series = reduced.shape[0]
        full = space.alphabet_size
        # Region of reduced symbol v: full symbols [v*w, (v+1)*w) with
        # w = 2^(B-bits); the value region is bounded by the extended
        # breakpoints at those indices (clamped for non-power-of-two
        # alphabets, where the last region is narrower).
        width = 1 << (space.bits_per_symbol - bits)
        values = np.arange(1 << bits, dtype=np.int64)
        edges = np.concatenate(
            ([-np.inf], space.breakpoints, [np.inf])
        ).astype(DISTANCE_DTYPE)
        self._lower_edges = edges[np.minimum(values * width, full)]
        self._upper_edges = edges[np.minimum((values + 1) * width, full)]
        self._table_shape = (space.segments, 1 << bits)

    @classmethod
    def from_full_symbols(
        cls, full_symbols: np.ndarray, space: SaxSpace, bits: int
    ) -> "SignatureArray":
        """Build from a full-resolution LSD symbol matrix (row-major, as
        LSDFile stores it; the tier keeps its own segment-major copy)."""
        return cls(reduce_symbols(full_symbols, space, bits), space, bits)

    @property
    def reduced(self) -> np.ndarray:
        """The ``(N, segments)`` symbol matrix: a view, nothing copied."""
        return self._by_segment.T

    @property
    def memory_bytes(self) -> int:
        """Resident size of the symbol matrix."""
        return self._by_segment.nbytes

    def gap_tables(self, query_paa: np.ndarray) -> np.ndarray:
        """Per-segment squared-gap lookup tables of one query or a block.

        ``query_paa`` is one ``(segments,)`` PAA row, giving a
        ``(segments, 2^bits)`` table, or a ``(Q, segments)`` block, giving
        ``(Q, segments, 2^bits)`` — row i bit for bit the table of query i
        alone.  ``tables[j, v]`` is the squared distance from the query's
        PAA value in segment j to the value region of reduced symbol v
        (zero when the value falls inside).  A query builds its table once
        and every LB_SAX pass over its rows (:meth:`screen`,
        :meth:`screen_batch`) indexes into it.
        """
        q = np.asarray(query_paa, dtype=DISTANCE_DTYPE)
        if q.ndim not in (1, 2) or q.shape[-1] != self.space.segments:
            raise ValueError(
                f"query PAA must have shape ({self.space.segments},) or "
                f"(Q, {self.space.segments}), got {q.shape}"
            )
        return self._gap_tables(q)

    def _gap_tables(self, q: np.ndarray) -> np.ndarray:
        """:meth:`gap_tables` for a float64 PAA array already checked:
        ``max(lower − q, q − upper, 0)²``, built in the output array one
        query at a time, so a block's build holds no temporary of the
        block's size."""
        tables = np.empty(q.shape + self._lower_edges.shape, dtype=DISTANCE_DTYPE)
        for out, values in zip(
            tables.reshape(-1, *self._table_shape), q.reshape(-1, self._table_shape[0], 1)
        ):
            np.subtract(self._lower_edges, values, out=out)
            np.maximum(out, values - self._upper_edges, out=out)
        np.maximum(tables, 0.0, out=tables)
        return np.multiply(tables, tables, out=tables)

    def _gap_sq_sums(
        self, tables: np.ndarray, rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Σ_j tables[j, reduced[i, j]] for every row (or the given rows),
        summed in segment order."""
        count = self.num_series if rows is None else len(rows)
        total = np.zeros(count, dtype=DISTANCE_DTYPE)
        for table, symbols in zip(tables, self._by_segment):
            total += table.take(symbols if rows is None else symbols.take(rows))
        return total

    def lower_bounds(
        self, query_paa: np.ndarray, series_length: int
    ) -> np.ndarray:
        """LB_SAX for every series (linear space), from one query's
        ``(segments,)`` PAA row.

        Matches ``SaxSpace.mindist`` evaluated on the (reduced) regions:
        always ≤ the full-resolution mindist ≤ the true distance.
        """
        tables = self._checked(self.gap_tables(query_paa))
        scale = series_length / self.space.segments
        return np.sqrt(scale * self._gap_sq_sums(tables))

    def _checked(self, tables: np.ndarray) -> np.ndarray:
        """``tables`` if it is one query's :meth:`gap_tables` output."""
        if tables.shape != self._table_shape:
            raise ValueError(
                f"expected one query's {self._table_shape} gap tables, "
                f"got shape {tables.shape}"
            )
        return tables

    def _lb_sax_pass(
        self,
        tables: np.ndarray,
        bsf_squared: float,
        series_length: int,
        prune_factor: float,
        rows: Optional[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The one LB_SAX kernel, documented at :meth:`screen`.

        Private so that :meth:`screen` and :meth:`screen_batch` never
        call each other: a tracer wrapping either public name then times
        exactly the pipeline that called it.
        """
        self._checked(tables)
        if rows is not None and not len(rows):  # e.g. an empty LCList
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=DISTANCE_DTYPE)
        scale = series_length / self.space.segments
        factor_sq = scale * prune_factor * prune_factor
        bounds_sq = factor_sq * self._gap_sq_sums(tables, rows)
        keep = np.flatnonzero(bounds_sq < bsf_squared)
        return (keep if rows is None else rows[keep]), bounds_sq[keep]

    def screen(
        self,
        tables: np.ndarray,
        bsf_squared: float,
        series_length: int,
        prune_factor: float = 1.0,
        rows: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 13 as one vectorised pass: the rows that may still
        beat the BSF.

        ``tables`` is the query's :meth:`gap_tables`.  Examines ``rows``
        (file positions; default: the whole array) and returns
        ``(positions, bounds_sq)`` of the survivors, in the order given.
        ``bounds_sq`` is the ε-scaled squared bound
        ``scale·prune_factor²·Σgap²`` and a row survives iff it is
        ``< bsf_squared`` — entirely in squared space, no square roots —
        so later re-checks compare the stored value straight against the
        live BSF².
        """
        return self._lb_sax_pass(
            tables, bsf_squared, series_length, prune_factor, rows
        )

    def screen_batch(
        self,
        tables: np.ndarray,
        bsf_squared: Sequence[float],
        series_length: int,
        prune_factor: float,
        rows: Sequence[np.ndarray],
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """:meth:`screen` for each query of a block — ``tables[i]`` its
        gap tables, a row of one ``(Q, segments, 2^bits)``
        :meth:`gap_tables` block — against its own BSF² and its own
        ``rows[i]`` (empty for a query with nothing to screen).

        One pass serves a run of queries: their rows are concatenated,
        and per segment one gather into the block's tables, indexed by
        each pair's query, adds that segment's squared gap to every
        pair's sum.  The sums run in segment order, as :meth:`screen`'s
        do, so every bound is bit for bit the one query's.  A run holds
        up to :data:`_PASS_PAIRS` (query, row) pairs, so the pass keeps
        a few arrays of that many pairs whatever Q is; a query with more
        rows is its own run, screened as :meth:`screen` screens it.
        ``rows`` is read in order, one run at a time, so a lazy sequence
        keeps only one run's rows alive.
        """
        tables = np.ascontiguousarray(tables, dtype=DISTANCE_DTYPE)
        if tables.shape[1:] != self._table_shape or not (
            len(tables) == len(bsf_squared) == len(rows)
        ):
            raise ValueError(
                f"expected Q {self._table_shape} gap tables, Q BSF² values and "
                f"Q row arrays, got tables of shape {tables.shape}, "
                f"{len(bsf_squared)} BSF² values and {len(rows)} row arrays"
            )
        cutoffs = np.asarray(bsf_squared, dtype=DISTANCE_DTYPE)
        # A query without rows gets one shared pair of empty arrays.
        found = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=DISTANCE_DTYPE))] * len(rows)
        run: list = []
        pairs = 0
        for query, query_rows in enumerate(rows):
            if not len(query_rows):
                continue
            if pairs and pairs + len(query_rows) > _PASS_PAIRS:
                self._pass_run(tables, cutoffs, series_length, prune_factor, run, found)
                run, pairs = [], 0
            run.append((query, query_rows))
            pairs += len(query_rows)
        if run:
            self._pass_run(tables, cutoffs, series_length, prune_factor, run, found)
        return found

    def _pass_run(
        self,
        tables: np.ndarray,
        cutoffs: np.ndarray,
        series_length: int,
        prune_factor: float,
        run: list,
        found: list,
    ) -> None:
        """:meth:`screen_batch` over one run of ``(query, rows)``, rows
        never empty: fills ``found[query]``."""
        if len(run) == 1:
            (query, query_rows), = run
            found[query] = self._lb_sax_pass(
                tables[query], cutoffs[query], series_length, prune_factor, query_rows
            )
            return
        counts = [len(query_rows) for _, query_rows in run]
        queries = np.array([query for query, _ in run])
        rows = np.concatenate([query_rows for _, query_rows in run])
        segments, values = self._table_shape
        # Each pair's query's tables in the flat block; segment j's table
        # is then a view ``j * values`` further on.
        base = np.repeat(queries * (segments * values), counts)
        index = np.empty_like(base)
        gaps = np.empty(len(rows), dtype=DISTANCE_DTYPE)
        total = np.zeros(len(rows), dtype=DISTANCE_DTYPE)
        flat = tables.reshape(-1)
        for segment, symbols in enumerate(self._by_segment):
            np.add(base, symbols.take(rows), out=index)
            total += flat[segment * values :].take(index, out=gaps, mode="clip")
        del base, index, gaps
        scale = series_length / self.space.segments
        total *= scale * prune_factor * prune_factor
        keep = np.flatnonzero(total < np.repeat(cutoffs[queries], counts))
        ends = np.searchsorted(keep, np.cumsum(counts)[:-1])
        pieces = zip(np.split(rows[keep], ends), np.split(total[keep], ends))
        for (query, _), piece in zip(run, pieces):
            found[query] = piece
