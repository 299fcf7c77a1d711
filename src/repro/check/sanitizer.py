"""Eraser-style lockset race sanitizer for the shared-memory build.

The threaded builder's correctness argument (Proposition 1 +
``LabelStore.add``'s distance-before-hub commit ordering) depends on
one discipline: **every write to shared state happens under a lock**.
This module checks that discipline dynamically, the way Eraser
(Savage et al., SOSP '97) does:

* every lock handed out by :func:`repro.check.hooks.make_lock` is a
  :class:`TrackedLock` whose acquire/release maintains a per-thread
  lockset;
* every tracked shared location keeps a *candidate lockset* — the
  intersection of the locksets held at each access since the location
  became shared;
* a write whose candidate lockset becomes empty is a (potential) race,
  reported with the stacks, threads and locks of both conflicting
  accesses — whether or not the interleaving actually corrupted
  anything on this run.

Two deliberate deviations from textbook Eraser, documented in
DESIGN.md §9:

* ``LabelStore`` *reads* are exempt: the pruning loop reads lock-free
  by design, made safe by the store's publication protocol (distance
  appended before hub, atomic under the GIL).  Only the commit side is
  lockset-checked.
* ``ThreadComm``'s allgather slot reads are exempt: they are ordered
  by barriers, which a lockset cannot model.  Slot writes (under the
  gather lock) are tracked.

The sanitizer is strictly opt-in: install one with
:meth:`LocksetSanitizer.install` (or the :func:`enable_from_env`
helper keyed on ``PARAPLL_SANITIZE=1``) and the runtime hooks in
:mod:`repro.check.hooks` start routing locks and accesses here; the
rest of the time every hook is a no-op.
"""

from __future__ import annotations

import itertools
import os
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.check import hooks as _hooks
from repro.check.naming import LockNameRegistry, ThreadTokens
from repro.errors import CheckError

__all__ = [
    "AccessInfo",
    "RaceReport",
    "TrackedLock",
    "LocksetSanitizer",
    "get_sanitizer",
    "enable_from_env",
    "ENV_FLAG",
]

#: Environment variable that opts the process into sanitizing.
ENV_FLAG = "PARAPLL_SANITIZE"

#: Frames of context captured per access (cost is paid only when on).
_STACK_LIMIT = 16

# Location lifecycle (Eraser's state machine).
_VIRGIN = "virgin"
_EXCLUSIVE = "exclusive"
_SHARED = "shared"
_SHARED_MOD = "shared-modified"
_REPORTED = "reported"


@dataclass
class AccessInfo:
    """One recorded access: who, with which locks, from where."""

    thread: str
    write: bool
    locks: Tuple[str, ...]
    stack: List[str]

    def render(self) -> str:
        kind = "write" if self.write else "read"
        locks = ", ".join(self.locks) if self.locks else "<none>"
        head = f"{kind} by thread {self.thread!r} holding [{locks}]"
        return head + "\n" + "".join(f"    {s}" for s in self.stack)


@dataclass
class RaceReport:
    """A shared location whose candidate lockset became empty."""

    location: str
    first: AccessInfo
    second: AccessInfo

    def render(self) -> str:
        return (
            f"RACE on {self.location}: no lock consistently protects it\n"
            f"  earlier access: {self.first.render()}\n"
            f"  racing access:  {self.second.render()}"
        )


class _LocationState:
    __slots__ = ("state", "owner", "lockset", "last")

    def __init__(self) -> None:
        self.state = _VIRGIN
        self.owner: Optional[int] = None
        #: Candidate lockset; ``None`` means "all locks" (not yet shared).
        self.lockset: Optional[FrozenSet[int]] = None
        self.last: Optional[AccessInfo] = None


class TrackedLock:
    """A ``threading.Lock`` that maintains the per-thread lockset.

    Drop-in for the subset of the Lock API this codebase uses
    (``acquire`` / ``release`` / context manager / ``locked``).
    """

    _ids = itertools.count(1)

    def __init__(self, sanitizer: "LocksetSanitizer", name: str) -> None:
        self._inner = threading.Lock()
        self._sanitizer = sanitizer
        self.name = name
        self.lock_id = next(self._ids)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._sanitizer._held(add=self)
        return got

    def release(self) -> None:
        self._sanitizer._held(remove=self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TrackedLock({self.name!r})"


class SanitizedLabelStore:
    """Write-tracking proxy around a :class:`~repro.core.labels.LabelStore`.

    Mutations (``add`` / ``add_delta`` / ``merge_from``) record a
    tracked write; reads delegate straight to the inner store (bound as
    instance attributes so the hot pruning path pays no ``__getattr__``
    dispatch).  Use :func:`repro.check.hooks.unwrap_store` before the
    single-threaded finalize phase.
    """

    _ids = itertools.count(1)

    def __init__(self, inner: Any, sanitizer: "LocksetSanitizer") -> None:
        self._san_inner = inner
        self._sanitizer = sanitizer
        self._location = f"LabelStore#{next(self._ids)}.labels"
        # Hot read paths, bound once.
        self.hubs_of = inner.hubs_of
        self.dists_of = inner.dists_of
        self.entries_of = inner.entries_of
        self.label_size = inner.label_size

    @property
    def n(self) -> int:
        return self._san_inner.n

    def add(self, v: int, hub_rank: int, dist: float) -> None:
        self._sanitizer.record_access(self._location, write=True)
        self._san_inner.add(v, hub_rank, dist)

    def add_delta(self, delta: Any) -> int:
        self._sanitizer.record_access(self._location, write=True)
        return self._san_inner.add_delta(delta)

    def merge_from(self, other: Any) -> int:
        self._sanitizer.record_access(self._location, write=True)
        return self._san_inner.merge_from(other)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._san_inner, name)


class LocksetSanitizer:
    """The lockset engine: tracks locks held and shared accesses.

    Args:
        raise_on_race: raise :class:`~repro.errors.CheckError` at the
            racing access (default: record into :attr:`reports` and
            keep going, so one run surfaces every racy location).
        lock_order: optional
            :class:`~repro.check.deadlock.LockOrderRecorder` fed with
            every (held, acquiring) pair, so one sanitized run also
            yields the lock-acquisition graph for deadlock analysis.
    """

    def __init__(
        self, raise_on_race: bool = False,
        lock_order: Optional[Any] = None,
    ) -> None:
        self.raise_on_race = raise_on_race
        self.lock_order = lock_order
        self.reports: List[RaceReport] = []
        self.accesses_tracked = 0
        self.locks_created = 0
        self._tls = threading.local()
        self._tokens = ThreadTokens()
        self._state: Dict[str, _LocationState] = {}
        self._state_lock = threading.Lock()
        self._lock_names: Dict[int, str] = {}
        self._names = LockNameRegistry()

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "LocksetSanitizer":
        """Make this the active sanitizer (see :mod:`repro.check.hooks`).

        Raises:
            CheckError: when a different sanitizer is already active —
                two engines would each see only half the accesses.
        """
        active = _hooks.get_active()
        if active is not None and active is not self:
            raise CheckError("another lockset sanitizer is already installed")
        _hooks.set_active(self)
        return self

    @property
    def access_count(self) -> int:
        """Total shared-location accesses recorded so far."""
        return self.accesses_tracked

    def uninstall(self) -> None:
        """Deactivate (hooks become no-ops again)."""
        if _hooks.get_active() is self:
            _hooks.set_active(None)

    def __enter__(self) -> "LocksetSanitizer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    # -- hook surface (called via repro.check.hooks) -------------------
    def make_lock(self, name: str) -> TrackedLock:
        with self._state_lock:
            # Per-instance unique display name: duplicate registrations
            # must not merge lockset/deadlock identities.
            unique = self._names.unique(name)
        lock = TrackedLock(self, unique)
        self.locks_created += 1
        self._lock_names[lock.lock_id] = unique
        return lock

    def wrap_store(self, store: Any) -> SanitizedLabelStore:
        return SanitizedLabelStore(store, self)

    def record_access(self, location: str, write: bool = True) -> None:
        """Run one access through the Eraser state machine."""
        held = self._held_ids()
        info = AccessInfo(
            thread=threading.current_thread().name,
            write=write,
            locks=tuple(
                self._lock_names.get(i, f"lock#{i}") for i in sorted(held)
            ),
            stack=traceback.format_stack(limit=_STACK_LIMIT)[:-2],
        )
        me = self._tokens.current()
        report: Optional[RaceReport] = None
        with self._state_lock:
            self.accesses_tracked += 1
            loc = self._state.get(location)
            if loc is None:
                loc = self._state[location] = _LocationState()
            if loc.state == _VIRGIN:
                loc.state = _EXCLUSIVE
                loc.owner = me
            elif loc.state == _EXCLUSIVE and loc.owner == me:
                pass  # still single-threaded: init phase, no refinement
            elif loc.state != _REPORTED:
                if loc.state == _EXCLUSIVE:
                    loc.state = _SHARED_MOD if write else _SHARED
                elif write:
                    loc.state = _SHARED_MOD
                loc.lockset = (
                    held if loc.lockset is None else loc.lockset & held
                )
                if loc.state == _SHARED_MOD and not loc.lockset:
                    report = RaceReport(
                        location=location,
                        first=loc.last or info,
                        second=info,
                    )
                    self.reports.append(report)
                    loc.state = _REPORTED  # one report per location
            loc.last = info
        if report is not None and self.raise_on_race:
            raise CheckError(report.render())

    # -- lockset bookkeeping -------------------------------------------
    def _held_set(self) -> Dict[int, int]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = {}
        return held

    def _held(self, add: Optional[TrackedLock] = None,
              remove: Optional[TrackedLock] = None) -> None:
        held = self._held_set()
        if add is not None:
            if self.lock_order is not None:
                self.lock_order.note_acquire(
                    tuple(
                        self._lock_names.get(i, f"lock#{i}")
                        for i in held
                    ),
                    add.name,
                )
            held[add.lock_id] = held.get(add.lock_id, 0) + 1
        if remove is not None:
            count = held.get(remove.lock_id, 0) - 1
            if count > 0:
                held[remove.lock_id] = count
            else:
                held.pop(remove.lock_id, None)

    def _held_ids(self) -> FrozenSet[int]:
        return frozenset(self._held_set())

    # -- reporting -----------------------------------------------------
    @property
    def ok(self) -> bool:
        """True when no races have been reported."""
        return not self.reports

    def render(self) -> str:
        """Terminal summary of the run."""
        lines = [
            f"lockset sanitizer: {self.accesses_tracked} accesses across "
            f"{len(self._state)} locations, {self.locks_created} tracked "
            f"locks, {len(self.reports)} race(s)"
        ]
        for report in self.reports:
            lines.append(report.render())
        return "\n".join(lines)


def get_sanitizer() -> Optional[LocksetSanitizer]:
    """The currently installed sanitizer, or ``None``."""
    active = _hooks.get_active()
    return active if isinstance(active, LocksetSanitizer) else None


def enable_from_env() -> Optional[Any]:
    """Install a sanitizer if ``PARAPLL_SANITIZE`` is set truthy.

    ``PARAPLL_SANITIZE=vc`` selects the happens-before vector-clock
    detector (:class:`~repro.check.vectorclock.VectorClockSanitizer`);
    any other truthy value installs the lockset engine.  Returns the
    installed sanitizer (new or pre-existing) or ``None`` when the
    flag is unset.  Used by the test suite's conftest so CI can run
    the tier-1 thread tests sanitized with one env var.
    """
    value = os.environ.get(ENV_FLAG, "").lower()
    if value in ("", "0", "false", "no"):
        return None
    existing = _hooks.get_active()
    if existing is not None:
        return existing
    if value == "vc":
        from repro.check.vectorclock import VectorClockSanitizer

        return VectorClockSanitizer().install()
    return LocksetSanitizer().install()


@dataclass
class _StressResult:
    """Outcome of :func:`stress_threads` (the ``check races`` CLI)."""

    sanitizer: Any
    builds: int = 0
    vertices: int = 0
    extra: List[str] = field(default_factory=list)


def stress_threads(
    num_threads: int = 4,
    repeats: int = 3,
    n: int = 120,
    m: int = 400,
    seed: int = 7,
    sanitizer: Optional[Any] = None,
    cluster: bool = False,
) -> _StressResult:
    """Run sanitized threaded builds as a race-hunting stress load.

    Builds a seeded random graph and runs the shared-memory builder
    ``repeats`` times per policy with the sanitizer installed (a fresh
    :class:`LocksetSanitizer` by default; pass a
    :class:`~repro.check.vectorclock.VectorClockSanitizer` for
    happens-before detection).  With ``cluster=True`` each repeat also
    runs the thread-backed cluster build, exercising the ``ThreadComm``
    envelope/barrier paths.  Violations show up in
    ``result.sanitizer.reports``.
    """
    from repro.generators.random_graphs import gnm_random_graph
    from repro.parallel.threads import build_parallel_threads

    graph = gnm_random_graph(n, m, seed=seed)
    if sanitizer is None:
        sanitizer = LocksetSanitizer()
    result = _StressResult(sanitizer=sanitizer, vertices=n)
    with sanitizer:
        for _ in range(repeats):
            for policy in ("dynamic", "static"):
                build_parallel_threads(graph, num_threads, policy=policy)
                result.builds += 1
            if cluster:
                from repro.cluster.runner import run_cluster_threads

                run_cluster_threads(
                    graph, max(2, min(num_threads, 4)), syncs=2
                )
                result.builds += 1
    return result
