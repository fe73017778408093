"""Retry policies with deterministic, seeded backoff jitter.

Transient failures — a flaky read, a dead shard worker, a stalled pipe —
are absorbed by bounded retries with exponential backoff.  Naive backoff
synchronizes: N shard workers that fail together retry together, hammer
the same disk together, and fail together again.  The usual fix is
random jitter, but randomness is poison for a reproduction whose tests
assert exact behaviour.  :func:`deterministic_jitter` squares the
circle: the jitter fraction is a pure function of a caller-chosen key
(a path, a shard id), the attempt number, and a seed — different keys
decorrelate, identical runs reproduce bit-for-bit.

:class:`RetryPolicy` packages the knobs the shard engine shares: how
many attempts, how the delay grows, how much jitter to mix in, how long
to wait for one shard, and the whole-query deadline.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "deterministic_jitter"]


def deterministic_jitter(key: str, attempt: int, seed: int = 0) -> float:
    """A jitter fraction in ``[0, 1)`` that is a pure function of its inputs.

    Derived from the CRC32 of ``key:attempt:seed`` — stable across
    processes, platforms, and Python hash randomization, so concurrent
    retries with different keys (per shard, per file) desynchronize while
    every rerun of the same scenario sleeps exactly the same schedule.
    """
    token = f"{key}:{attempt}:{seed}".encode()
    return (zlib.crc32(token) & 0xFFFFFFFF) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential, deterministically jittered backoff.

    ``attempts`` counts *total* tries (1 = no retry).  The delay before
    retry ``i`` (1-based) is ``backoff_seconds * multiplier**(i-1) *
    (1 + jitter_fraction * deterministic_jitter(key, i, seed))``, capped
    at ``max_backoff_seconds``.  ``shard_timeout`` bounds one shard's
    single attempt; ``deadline`` bounds the whole scatter-gather
    operation.  ``None`` disables the corresponding bound.
    """

    attempts: int = 3
    backoff_seconds: float = 0.05
    multiplier: float = 2.0
    jitter_fraction: float = 0.5
    max_backoff_seconds: float = 2.0
    shard_timeout: Optional[float] = None
    deadline: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff_seconds < 0.0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds}"
            )
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )
        for name in ("shard_timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to sleep before retry ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_seconds * self.multiplier ** (attempt - 1)
        jitter = self.jitter_fraction * deterministic_jitter(
            key, attempt, self.seed
        )
        return min(base * (1.0 + jitter), self.max_backoff_seconds)

    def past_deadline(self, started: float) -> bool:
        """Whether ``deadline`` has passed since ``started`` (``time.monotonic``)."""
        return (
            self.deadline is not None
            and time.monotonic() - started >= self.deadline
        )

    def delays(self, key: str = "") -> list[float]:
        """The full backoff schedule: one delay per retry after attempt 1."""
        return [self.delay(i, key) for i in range(1, self.attempts)]
