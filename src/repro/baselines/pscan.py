"""PSCAN — the parallel optimized sequential scan (Section 4.1).

PSCAN is the paper's own parallel implementation of the UCR suite
adapted to whole matching: squared distances, early abandoning, SIMD,
and a *double buffer* overlapping disk reads with distance computation.
The structure here mirrors that: a dedicated reader thread streams the
dataset sequentially into a small bounded queue (the double buffer —
the reader fills the next chunk while workers drain previous ones), and
compute threads run the screening early-abandoning batch kernel (the SIMD
analog) against the global best-so-far.  Keeping all reads on one
thread also keeps the I/O pattern what a scan's should be: one long
sequential pass.

The serial variant in :mod:`repro.baselines.scan` is the reference line
of Figure 9.
"""

from __future__ import annotations

import queue
import threading
from typing import Optional, Union

import numpy as np

from repro.core.query import QueryAnswer, QueryProfile
from repro.obs import timed_profile
from repro.core.results import ResultSet
from repro.distance.euclidean import early_abandon_squared
from repro.errors import ConfigError
from repro.storage.dataset import Dataset
from repro.types import DISTANCE_DTYPE

#: Chunks buffered between the reader and the compute threads.
_QUEUE_DEPTH = 4

_SENTINEL: tuple = ()


class PScan:
    """Parallel early-abandoning scan over the raw dataset file."""

    name = "PSCAN"

    def __init__(
        self,
        data: Union[np.ndarray, Dataset],
        num_threads: int = 4,
        chunk_size: int = 2048,
    ) -> None:
        if num_threads < 1:
            raise ConfigError(f"num_threads must be >= 1, got {num_threads}")
        if chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        self.dataset = data if isinstance(data, Dataset) else Dataset.from_array(data)
        self.num_threads = num_threads
        self.chunk_size = chunk_size
        self.num_series = self.dataset.num_series
        self.build_seconds = 0.0  # scans build nothing

    def knn(self, query: np.ndarray, k: int = 1) -> QueryAnswer:
        query64 = np.asarray(query, dtype=DISTANCE_DTYPE)
        results = ResultSet(k)
        profile = QueryProfile()
        with timed_profile(
            profile, path="pscan", io_stats=self.dataset.stats, k=k
        ):
            profile_lock = threading.Lock()
            errors: list[BaseException] = []
            chunks: "queue.Queue[tuple]" = queue.Queue(maxsize=_QUEUE_DEPTH)

            def offer(item: tuple) -> bool:
                """Put with periodic error checks so a dead consumer side
                cannot wedge the reader on a full queue."""
                while True:
                    try:
                        chunks.put(item, timeout=0.2)
                        return True
                    except queue.Full:
                        if errors:
                            return False

            def reader() -> None:
                """The double buffer's producer: one sequential pass."""
                try:
                    for start, chunk in self.dataset.iter_batches(self.chunk_size):
                        if not offer((start, chunk)):
                            break
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                finally:
                    # One sentinel suffices: each worker re-offers it on exit,
                    # forming a shutdown chain that survives dead workers.
                    offer(_SENTINEL)

            def worker() -> None:
                try:
                    accessed = 0
                    compared = 0
                    length = max(query64.shape[0], 1)
                    while True:
                        item = chunks.get()
                        if item is _SENTINEL or not item:
                            offer(item)  # pass the shutdown token along
                            break
                        start, chunk = item
                        accessed += chunk.shape[0]
                        squared, points = early_abandon_squared(
                            query64, chunk, results.bsf_squared
                        )
                        compared += points
                        positions = start + np.arange(
                            chunk.shape[0], dtype=np.int64
                        )
                        results.update_batch_squared(squared, positions)
                    with profile_lock:
                        profile.series_accessed += accessed
                        profile.distance_computations += compared // length
                        profile.points_compared += compared
                        profile.points_total += accessed * length
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)
                    offer(_SENTINEL)  # release peers blocked on the queue

            if self.num_threads == 1:
                # Degenerate case: read and compute on the calling thread.
                reader_thread: Optional[threading.Thread] = None
                reader_inline = self.dataset.iter_batches(self.chunk_size)
                length = max(query64.shape[0], 1)
                accessed = compared = 0
                for start, chunk in reader_inline:
                    accessed += chunk.shape[0]
                    squared, points = early_abandon_squared(
                        query64, chunk, results.bsf_squared
                    )
                    compared += points
                    positions = start + np.arange(chunk.shape[0], dtype=np.int64)
                    results.update_batch_squared(squared, positions)
                profile.series_accessed = accessed
                profile.distance_computations = compared // length
                profile.points_compared = compared
                profile.points_total = accessed * length
            else:
                reader_thread = threading.Thread(
                    target=reader, name="pscan-reader", daemon=True
                )
                compute = [
                    threading.Thread(target=worker, name=f"pscan-{i}", daemon=True)
                    for i in range(self.num_threads - 1)
                ]
                reader_thread.start()
                for thread in compute:
                    thread.start()
                reader_thread.join()
                for thread in compute:
                    thread.join()
        distances, positions = results.items()
        return QueryAnswer(distances, positions, profile)

    @property
    def query_io(self):
        """I/O counters of the dataset file being scanned."""
        return self.dataset.stats

    def close(self) -> None:
        """The dataset is managed by the caller."""
