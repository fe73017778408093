"""The k-best-so-far result set of a search.

The paper's ``Results`` array holds the k best answers at any time;
``BSF_k``, the k-th best distance, drives every pruning decision.
Hercules refines on the calling thread, but the PSCAN and ParIS+
baselines update one set from several threads, so updates take a lock;
distances are the hot read path, so reads of the cached bound are
lock-free (a stale bound can only make pruning more conservative, never
incorrect).  Across the processes of a sharded index,
:class:`LinkedResultSet` shares the bound through the worker pool's
process-shared BSF² link.

Distances are stored in *squared* space — the UCR-suite optimization the
whole query pipeline operates in: candidates arrive as squared Euclidean
distances straight from the batch kernels, pruning compares squared
values against ``bsf_squared``, and the single square root per answer is
taken in :meth:`ResultSet.items`.  The one linear-space entry point,
:meth:`ResultSet.update`, squares on the way in — ``sqrt(d * d) == d``
exactly in IEEE round-to-nearest.
"""

from __future__ import annotations

import heapq
import operator
import threading

import numpy as np

from repro.types import DISTANCE_DTYPE


def check_k(k) -> int:
    """``k`` as an ``int``, or ``ValueError`` unless it is a whole number
    >= 1.  NumPy integers pass; a float such as ``2.5`` does not."""
    try:
        value = operator.index(k)
    except TypeError:
        value = 0
    if value < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    return value


class ResultSet:
    """Thread-safe container of the k smallest (distance, position) pairs.

    Ties: a candidate enters only while strictly below the k-th best and
    a batch is merged in stable distance order, so among equal distances
    the earliest-offered candidate wins the last place — one offered
    later never displaces it.  The query pipeline offers phase-1 visits
    first and everything after in file order.  When a closer candidate
    pushes out one of several members tied at the k-th distance, the
    smallest position leaves; which of a set of exact duplicates is
    reported can therefore depend on how refinement chunked its
    candidates and on worker interleaving.  Every such answer is correct
    and the distances are the same in all of them.
    """

    def __init__(self, k: int) -> None:
        self.k = check_k(k)
        self._lock = threading.Lock()
        # Max-heap via negated squared distances: the root is the current
        # k-th best.
        self._heap: list[tuple[float, int]] = []
        # Guard against the same series entering twice (e.g. a position
        # examined by both an approximate probe and a later filter pass).
        self._members: set[int] = set()
        self._bsf_squared = np.inf

    @property
    def bsf_squared(self) -> float:
        """The squared k-th smallest distance so far (inf until k answers).

        Read without the lock: Python guarantees the float reference swap
        is atomic, and a momentarily stale value only weakens pruning.
        """
        return self._bsf_squared

    @property
    def bsf(self) -> float:
        """The k-th smallest distance so far, in linear space."""
        return float(np.sqrt(self._bsf_squared))

    def refresh(self) -> None:
        """Take in bounds found elsewhere; refinement calls this at every
        chunk boundary.  A private set has nothing to take in."""

    def update_squared(self, distance_squared: float, position: int) -> bool:
        """Offer one squared-distance candidate; True if it entered."""
        if distance_squared >= self._bsf_squared:
            return False
        with self._lock:
            if position in self._members:
                return False
            if len(self._heap) < self.k:
                heapq.heappush(self._heap, (-distance_squared, position))
            elif distance_squared < -self._heap[0][0]:
                _, evicted = heapq.heapreplace(
                    self._heap, (-distance_squared, position)
                )
                self._members.discard(evicted)
            else:
                return False
            self._members.add(position)
            if len(self._heap) == self.k:
                self._bsf_squared = -self._heap[0][0]
            return True

    def update(self, distance: float, position: int) -> bool:
        """Offer one linear-space candidate; True if it entered the top-k."""
        return self.update_squared(distance * distance, position)

    def update_batch_squared(
        self, distances_squared: np.ndarray, positions: np.ndarray
    ) -> int:
        """Offer many squared-distance candidates; returns how many entered.

        A vectorized pre-filter against the lock-free ``bsf_squared``
        drops the (typical) majority of candidates without taking the
        lock; survivors are merged into the heap in one locked pass,
        sorted ascending so the merge stops at the first candidate that
        cannot enter.  ``inf`` entries (early-abandoned rows) are dropped
        by the pre-filter for free.
        """
        dist = np.asarray(distances_squared, dtype=DISTANCE_DTYPE)
        pos = np.asarray(positions, dtype=np.int64)
        if dist.shape != pos.shape or dist.ndim != 1:
            raise ValueError(
                f"distances {dist.shape} and positions {pos.shape} must be "
                "matching 1-D vectors"
            )
        # Stale bsf_squared is only ever >= the true bound (it decreases
        # monotonically), so the pre-filter can admit extras but never
        # drop a candidate the locked merge would have accepted.
        mask = dist < self._bsf_squared
        kept = np.count_nonzero(mask)
        if not kept:
            return 0
        if kept < dist.shape[0]:
            dist = dist[mask]
            pos = pos[mask]
        order = np.argsort(dist, kind="stable")
        dist_list = dist[order].tolist()
        pos_list = pos[order].tolist()
        accepted = 0
        with self._lock:
            heap = self._heap
            members = self._members
            for d, p in zip(dist_list, pos_list):
                if len(heap) >= self.k:
                    if d >= -heap[0][0]:
                        break  # sorted: everything after is worse
                    if p in members:
                        continue
                    _, evicted = heapq.heapreplace(heap, (-d, p))
                    members.discard(evicted)
                else:
                    if p in members:
                        continue
                    heapq.heappush(heap, (-d, p))
                members.add(p)
                accepted += 1
            if len(heap) == self.k:
                self._bsf_squared = -heap[0][0]
        return accepted

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Current answers sorted by ascending distance (linear space).

        The one square root of the squared-space pipeline happens here.
        Returns ``(distances, positions)``; shorter than k if fewer than
        k candidates were ever offered.
        """
        with self._lock:
            pairs = sorted((-d, p) for d, p in self._heap)
        distances = np.sqrt(
            np.array([d for d, _ in pairs], dtype=DISTANCE_DTYPE)
        )
        positions = np.array([p for _, p in pairs], dtype=np.int64)
        return distances, positions

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


class LinkedResultSet(ResultSet):
    """A shard-local result set pruning against a shared global BSF².

    The scatter-gather coordinator gives every shard search one of these,
    all linked to the same bound cell (one slot of the worker pool's
    process-shared :class:`~repro.core.shard_worker.ProcessBsfVector`).  Reads of
    :attr:`bsf_squared` — the hot pruning path — return
    ``min(local k-th best, cached global bound)``: one comparison, never
    a lock (or semaphore) acquire.  The cached global bound is re-read
    from the link by :meth:`refresh`, which refinement calls at every
    chunk boundary — a bound another shard publishes between two chunks
    is the cutoff the next chunk uses.  Local improvements are published
    to the link immediately.

    Correctness does not depend on freshness: the global bound is an
    upper bound on the final global k-th distance at all times (it is the
    min over shards of *local* k-th bests, each ≥ the final global k-th),
    so pruning against any past value of it can only discard candidates
    that provably cannot enter the global top-k — up to ties at the k-th
    distance, which are reported arbitrarily exactly as a single index
    does.
    """

    def __init__(self, k: int, link) -> None:
        super().__init__(k)
        self._link = link
        self._link_bsf = float(link.get())

    @property
    def bsf_squared(self) -> float:
        local = self._bsf_squared
        return local if local < self._link_bsf else self._link_bsf

    def refresh(self) -> None:
        self._link_bsf = float(self._link.get())

    def _publish_if_better(self) -> None:
        local = self._bsf_squared
        if local < self._link_bsf:
            self._link.publish(local)
            self._link_bsf = float(self._link.get())

    def update_squared(self, distance_squared: float, position: int) -> bool:
        entered = super().update_squared(distance_squared, position)
        if entered:
            self._publish_if_better()
        return entered

    def update_batch_squared(
        self, distances_squared: np.ndarray, positions: np.ndarray
    ) -> int:
        accepted = super().update_batch_squared(distances_squared, positions)
        if accepted:
            self._publish_if_better()
        return accepted
