"""Storage fault injection: deterministic crashes, torn writes, flaky reads.

A disk-resident index is only as trustworthy as its behaviour *around*
failures: a power cut mid-`save_tree`, a filesystem that persists half an
append, a transient ``EIO`` that a retry would have absorbed.  This module
lets tests script those events precisely:

* :class:`FaultPlan` describes one fault — "the Nth write crashes", "the
  3rd read fails transiently twice", "write 7 persists only a prefix";
* :class:`FaultInjector` counts every read/write/flush that
  :class:`~repro.storage.files.BinaryFile` performs and fires the plans
  whose trigger matches, which also makes it a plain operation counter
  (inject no plans, read ``injector.counts`` afterwards) — the crash-matrix
  test uses that to enumerate every crash point of a build;
* :func:`inject` installs an injector process-wide for the duration of a
  ``with`` block; ``BinaryFile`` consults the active injector on every
  operation.

Fault exceptions derive from :class:`OSError` so they travel the same
paths a real I/O error would.  :class:`TransientFault` is retryable (and
``BinaryFile.readv`` retries its run with backoff); :class:`CrashFault`
models a process death and is never retried.

Plans also ship **across process boundaries**: :func:`ship_plans` JSON-
encodes a ``{shard_id_or_*: [FaultPlan, ...]}`` mapping into the
:data:`PLANS_ENV` environment variable, shard worker processes pick up
their share with :func:`worker_injection`, and two extra modes model
whole-process failures — ``"kill"`` (``os._exit``, the shape of an OOM
kill; only honoured inside workers) and ``"stall"`` (the operation
sleeps, the shape of a hung NFS mount).  A plan with a ``fence`` path
fires exactly once machine-wide: the firing attempt claims the fence
file, so a requeued/retried task sails past the fault — which is how
the chaos tests assert *recovery*, not just failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

OPS = ("read", "write", "flush")
MODES = ("crash", "torn", "transient", "kill", "stall")

#: Environment variable carrying JSON-encoded per-shard fault plans into
#: shard worker processes (inherited under both fork and spawn).
PLANS_ENV = "REPRO_FAULT_PLANS"

#: Exit status of a worker felled by a ``"kill"`` plan: 128 + SIGKILL,
#: the status an OOM-killed process reports.
KILL_EXIT_CODE = 137


class InjectedFault(OSError):
    """Base class of all injected storage faults."""


class CrashFault(InjectedFault):
    """A simulated crash: the operation dies and must not be retried."""


class TransientFault(InjectedFault):
    """A simulated transient error: a retry of the same operation may
    succeed (the injector stops raising after ``failures`` firings)."""


@dataclass
class FaultPlan:
    """One scripted fault.

    ``op`` is which :class:`~repro.storage.files.BinaryFile` operation to
    target, ``at`` the 1-based global count of that operation at which the
    fault fires.  ``mode``:

    * ``"crash"`` — raise :class:`CrashFault` before the operation touches
      the file (for ``write``: nothing is persisted);
    * ``"torn"`` — for writes only: persist the first
      ``int(len(data) * torn_fraction)`` bytes, then raise
      :class:`CrashFault` — the classic torn page;
    * ``"transient"`` — raise :class:`TransientFault` for ``failures``
      consecutive attempts of the triggering operation, then let the
      retry succeed;
    * ``"kill"`` — die on the spot with ``os._exit(KILL_EXIT_CODE)``,
      modelling an OOM-killed worker.  Only honoured by injectors built
      with ``allow_kill=True`` (the worker-process channel); elsewhere it
      degrades to a :class:`CrashFault` so a stray plan cannot take down
      a test runner or the coordinator;
    * ``"stall"`` — the operation sleeps ``stall_seconds`` and then
      proceeds normally, modelling a hung mount / stalled pipe.

    ``fence``, when set, is a filesystem path used as a machine-wide
    once-only latch: the first firing attempt claims the file (atomic
    ``O_EXCL`` create) and fires; every later attempt — in any process —
    sees the claimed fence and skips the fault.  Chaos tests use fences
    so the *retry* of a failed task succeeds.
    """

    op: str = "write"
    at: int = 1
    mode: str = "crash"
    torn_fraction: float = 0.5
    failures: int = 1
    stall_seconds: float = 0.0
    fence: Optional[str] = None
    _remaining: int = field(init=False, default=-1, repr=False)

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"op must be one of {OPS}, got {self.op!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown fault mode {self.mode!r}")
        if self.mode == "torn" and self.op != "write":
            raise ValueError("torn faults only apply to writes")
        if self.at < 1:
            raise ValueError(f"at must be >= 1, got {self.at}")
        if not 0.0 <= self.torn_fraction < 1.0:
            raise ValueError(
                f"torn_fraction must be in [0, 1), got {self.torn_fraction}"
            )
        if self.stall_seconds < 0.0:
            raise ValueError(
                f"stall_seconds must be >= 0, got {self.stall_seconds}"
            )
        self._remaining = self.failures

    def to_dict(self) -> dict:
        """A JSON-ready form of this plan (drops the runtime counter)."""
        doc = dataclasses.asdict(self)
        doc.pop("_remaining", None)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        return cls(**{k: v for k, v in doc.items() if k != "_remaining"})

    def claim_fence(self) -> bool:
        """Claim this plan's once-only latch; True if the fault may fire.

        Plans without a fence always fire.  The claim is an atomic
        exclusive create, so exactly one process (ever) wins it.
        """
        if self.fence is None:
            return True
        try:
            fd = os.open(self.fence, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


class FaultInjector:
    """Counts BinaryFile operations and fires matching :class:`FaultPlan`s.

    Thread-safe: the counters define the crash matrix, so counting and
    triggering happen under one lock, whichever thread (PSCAN's reader
    thread, say) performs the operation.

    ``allow_kill`` arms ``"kill"`` plans: only the worker-process channel
    (:func:`worker_injection`) sets it, so a kill plan reaching the
    coordinator or a test runner degrades to a :class:`CrashFault`
    instead of exiting the process.
    """

    def __init__(
        self,
        plans: Optional[list[FaultPlan]] = None,
        allow_kill: bool = False,
    ) -> None:
        self._lock = threading.Lock()
        self.plans = list(plans) if plans else []
        self.allow_kill = allow_kill
        self.counts = {op: 0 for op in OPS}

    # -- BinaryFile hooks ---------------------------------------------------

    def on_read(self, path) -> None:
        """Called before each read; may raise an injected fault."""
        self._fire("read", path)

    def intercept_write(self, path, data: bytes) -> tuple[bytes, Optional[BaseException]]:
        """Called before each write.

        Returns ``(bytes_to_persist, fault_or_None)``: the file layer
        writes the returned bytes and then raises the fault, so a torn
        write leaves its prefix durably behind like real hardware would.
        """
        with self._lock:
            self.counts["write"] += 1
            plan = self._match("write", self.counts["write"])
        if plan is None or not plan.claim_fence():
            return data, None
        if plan.mode == "stall":
            time.sleep(plan.stall_seconds)
            return data, None
        if plan.mode == "kill":
            self._kill("write", path)
        if plan.mode == "torn":
            prefix = data[: int(len(data) * plan.torn_fraction)]
            return prefix, CrashFault(
                f"injected torn write at {path} "
                f"({len(prefix)}/{len(data)} bytes persisted)"
            )
        return b"", self._make_fault(plan, "write", path)

    def on_flush(self, path) -> None:
        """Called before each flush; may raise an injected fault."""
        self._fire("flush", path)

    # -- internals ----------------------------------------------------------

    def _fire(self, op: str, path) -> None:
        with self._lock:
            self.counts[op] += 1
            plan = self._match(op, self.counts[op])
        if plan is None or not plan.claim_fence():
            return
        if plan.mode == "stall":
            time.sleep(plan.stall_seconds)
            return
        if plan.mode == "kill":
            self._kill(op, path)
        raise self._make_fault(plan, op, path)

    def _kill(self, op: str, path) -> None:
        """Die like an OOM-killed worker — or refuse, outside a worker."""
        if self.allow_kill:
            os._exit(KILL_EXIT_CODE)
        raise CrashFault(
            f"injected kill at {op} of {path} "
            "(kill plans are only armed inside shard workers)"
        )

    def _match(self, op: str, count: int) -> Optional[FaultPlan]:
        for plan in self.plans:
            if plan.op != op:
                continue
            if plan.mode == "transient":
                # Fires for `failures` consecutive attempts from `at`.
                if plan.at <= count and plan._remaining > 0:
                    plan._remaining -= 1
                    return plan
            elif count == plan.at:
                return plan
        return None

    @staticmethod
    def _make_fault(plan: FaultPlan, op: str, path) -> InjectedFault:
        if plan.mode == "transient":
            return TransientFault(f"injected transient {op} error at {path}")
        return CrashFault(f"injected crash before {op} #{plan.at} at {path}")


_active: Optional[FaultInjector] = None
_active_lock = threading.Lock()


def active_injector() -> Optional[FaultInjector]:
    """The process-wide injector installed by :func:`inject`, if any."""
    return _active


@contextmanager
def inject(injector_or_plans) -> Iterator[FaultInjector]:
    """Install a :class:`FaultInjector` for the duration of the block.

    Accepts an injector, a single :class:`FaultPlan`, or a list of plans
    (an empty list makes a pure operation counter).  Nested installs are
    rejected: overlapping fault scripts would make counts meaningless.
    """
    global _active
    if isinstance(injector_or_plans, FaultInjector):
        injector = injector_or_plans
    elif isinstance(injector_or_plans, FaultPlan):
        injector = FaultInjector([injector_or_plans])
    else:
        injector = FaultInjector(list(injector_or_plans))
    with _active_lock:
        if _active is not None:
            raise RuntimeError("a FaultInjector is already active")
        _active = injector
    try:
        yield injector
    finally:
        _active = None


# ---------------------------------------------------------------------------
# Cross-process plan shipping (the chaos-test channel into shard workers)
# ---------------------------------------------------------------------------


def encode_plans(plans_by_shard: dict) -> str:
    """JSON-encode ``{shard_id_or_"*": [FaultPlan, ...]}`` for the env.

    The ``"*"`` key targets every shard.  Values may be single plans or
    lists.
    """
    doc = {}
    for key, plans in plans_by_shard.items():
        if isinstance(plans, FaultPlan):
            plans = [plans]
        doc[str(key)] = [plan.to_dict() for plan in plans]
    return json.dumps(doc)


def plans_for_shards(shard_ids) -> list[FaultPlan]:
    """Decode this process's shipped plans that target ``shard_ids``.

    Reads :data:`PLANS_ENV` (inherited from the coordinator under both
    fork and spawn); returns the plans keyed by any of the given shard
    ids plus every ``"*"`` plan, in stable (key-sorted) order.
    """
    raw = os.environ.get(PLANS_ENV)
    if not raw:
        return []
    doc = json.loads(raw)
    wanted = {str(shard_id) for shard_id in shard_ids}
    plans: list[FaultPlan] = []
    for key in sorted(doc):
        if key == "*" or key in wanted:
            plans.extend(FaultPlan.from_dict(d) for d in doc[key])
    return plans


@contextmanager
def ship_plans(plans_by_shard: dict) -> Iterator[None]:
    """Publish per-shard plans to workers spawned inside the block.

    Sets :data:`PLANS_ENV` in this process's environment (restored on
    exit); worker processes started while it is set pick up their share
    via :func:`worker_injection`.
    """
    previous = os.environ.get(PLANS_ENV)
    os.environ[PLANS_ENV] = encode_plans(plans_by_shard)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PLANS_ENV, None)
        else:
            os.environ[PLANS_ENV] = previous


@contextmanager
def worker_injection(shard_ids) -> Iterator[Optional[FaultInjector]]:
    """Install this worker's shipped plans for the duration of the block.

    A no-op (yields ``None``) when no shipped plan targets ``shard_ids``;
    otherwise installs a kill-armed :class:`FaultInjector`.  Build
    workers wrap each shard task (so operation counts restart per shard,
    keeping ``at=`` triggers deterministic); query workers wrap their
    whole serving loop.
    """
    plans = plans_for_shards(shard_ids)
    if not plans:
        yield None
        return
    with inject(FaultInjector(plans, allow_kill=True)) as injector:
        yield injector
