"""FastTrack-style happens-before race detection for the shared builds.

The project's one race detector: a vector-clock happens-before
detector in the FastTrack (Flanagan & Freund, PLDI '09) family that
consumes the full synchronization-event surface of
:mod:`repro.check.hooks` —

* lock acquire/release (release merges the holder's clock into the
  lock, acquire joins it back out),
* thread ``fork``/``join`` edges from the builders,
* comm envelope ``send``/``recv`` edges from ``SimComm``/``ThreadComm``
  (per-message when the transport carries the token, per-channel
  otherwise),
* ``barrier`` arrive/depart pairs (arrive merges into the barrier
  clock, depart joins it out — sound across reuse because barrier
  rounds are globally ordered)

— and reports an access pair as a race exactly when neither access
happens-before the other.  The commit-on-completion pattern of
:mod:`repro.parallel.threads` (workers commit under the lock, the main
thread finalizes lock-free *after joining them*) is therefore proven
race-free by the join edges, which is the Proposition 1 discipline
stated as a happens-before fact; barrier-ordered reads (the
``ThreadComm`` allgather slots) are tracked like any other access.

The limit of the method: it judges the observed run's order, so two
unlocked writes that happen to be ordered by an unrelated tracked lock
in this run are not reported (DESIGN.md §14).

It is strictly opt-in (install via :meth:`VectorClockSanitizer.install`
or ``PARAPLL_SANITIZE``, see :func:`enable_from_env`), and it reports
at most one race per location with both stacks captured.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.check import hooks as _hooks
from repro.check.naming import LockNameRegistry, ThreadTokens
from repro.errors import CheckError

__all__ = [
    "VCAccess",
    "VCRaceReport",
    "VCTrackedLock",
    "SanitizedLabelStore",
    "VectorClockSanitizer",
    "get_vc_sanitizer",
    "enable_from_env",
    "stress_threads",
    "ENV_FLAG",
]

#: Environment variable that opts the process into sanitizing.
ENV_FLAG = "PARAPLL_SANITIZE"

#: Frames of context captured per access (cost paid only when on).
_STACK_LIMIT = 8

#: A vector clock: thread token -> logical time (tokens come from
#: :class:`~repro.check.naming.ThreadTokens`, never reused).  Plain
#: dicts keep the merge loop allocation-free on the common small sizes.
Clock = Dict[int, int]


def _merge(into: Clock, other: Clock) -> None:
    for ident, tick in other.items():
        if tick > into.get(ident, 0):
            into[ident] = tick


#: One captured frame: (filename, lineno, function name).  Raw tuples
#: from a ``sys._getframe`` walk — formatting (and any source-line
#: lookup) is deferred to :meth:`VCAccess.render`, so the per-access
#: cost stays a few microseconds instead of a linecache hit.
Frame = Tuple[str, int, str]


def _capture_stack(skip: int) -> List[Frame]:
    frames: List[Frame] = []
    try:
        f = sys._getframe(skip)
    except ValueError:  # pragma: no cover - shallow stacks
        return frames
    while f is not None and len(frames) < _STACK_LIMIT:
        code = f.f_code
        frames.append((code.co_filename, f.f_lineno, code.co_name))
        f = f.f_back
    frames.reverse()  # oldest first, matching traceback order
    return frames


@dataclass
class VCAccess:
    """One recorded access: who, when (its epoch), from where."""

    thread: str
    ident: int
    tick: int
    write: bool
    stack: List[Frame]

    def render(self) -> str:
        kind = "write" if self.write else "read"
        head = f"{kind} by thread {self.thread!r} at epoch {self.tick}"
        return head + "\n" + "".join(
            f'    File "{filename}", line {lineno}, in {func}\n'
            for filename, lineno, func in self.stack
        )

    def location_hint(self) -> Tuple[Optional[str], Optional[int]]:
        """(file, line) of the innermost non-check frame, for reports."""
        for filename, lineno, _func in reversed(self.stack):
            if "repro/check/" not in filename.replace("\\", "/"):
                return filename, lineno
        return (None, None)


@dataclass
class VCRaceReport:
    """Two accesses to one location with no happens-before order."""

    location: str
    first: VCAccess
    second: VCAccess

    def render(self) -> str:
        return (
            f"RACE on {self.location}: accesses are concurrent "
            "(no happens-before edge orders them)\n"
            f"  earlier access: {self.first.render()}"
            f"  racing access:  {self.second.render()}"
        )

    def to_finding(self) -> Dict[str, Any]:
        path, line = self.second.location_hint()
        return {
            "kind": "race",
            "rule": "VC-RACE",
            "path": path,
            "line": line,
            "message": (
                f"concurrent {'write' if self.second.write else 'read'} on "
                f"{self.location} by {self.second.thread!r} races with "
                f"{'write' if self.first.write else 'read'} by "
                f"{self.first.thread!r}"
            ),
            "detail": self.render(),
        }


class VCTrackedLock:
    """A lock whose release/acquire carries a vector clock."""

    def __init__(self, sanitizer: "VectorClockSanitizer", name: str) -> None:
        self._inner = threading.Lock()
        self._sanitizer = sanitizer
        self.name = name
        self.clock: Clock = {}

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._sanitizer._on_acquire(self)
        return got

    def release(self) -> None:
        self._sanitizer._on_release(self)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VCTrackedLock({self.name!r})"


class SanitizedLabelStore:
    """Write-tracking proxy around a :class:`~repro.core.labels.LabelStore`.

    Every method the store lists in ``MUTATORS`` records a tracked write
    and then runs; reads delegate straight to the inner store (the hot
    ones bound as instance attributes so the pruning path pays no
    ``__getattr__`` dispatch).  Use :func:`repro.check.hooks.unwrap_store`
    before the single-threaded finalize phase.
    """

    _ids = itertools.count(1)

    def __init__(self, inner: Any, sanitizer: "VectorClockSanitizer") -> None:
        self._san_inner = inner
        self._sanitizer = sanitizer
        self._location = f"LabelStore#{next(self._ids)}.labels"
        # Hot read paths, bound once.
        self.hubs_of = inner.hubs_of
        self.dists_of = inner.dists_of
        self.entries_of = inner.entries_of
        self.label_size = inner.label_size
        for name in type(inner).MUTATORS:
            setattr(self, name, self._tracked(getattr(inner, name)))

    def _tracked(self, mutator: Any) -> Any:
        record = self._sanitizer.record_access
        location = self._location

        def tracked(*args: Any, **kwargs: Any) -> Any:
            record(location, write=True)
            return mutator(*args, **kwargs)

        return tracked

    @property
    def n(self) -> int:
        return self._san_inner.n

    def __getattr__(self, name: str) -> Any:
        return getattr(self._san_inner, name)


class _ThreadState:
    __slots__ = ("ident", "clock", "name", "held")

    def __init__(self, ident: int, name: str) -> None:
        self.ident = ident
        self.clock: Clock = {ident: 1}
        self.name = name
        self.held: List[str] = []


class _Epoch:
    __slots__ = ("ident", "tick", "info")

    def __init__(self, ident: int, tick: int, info: VCAccess) -> None:
        self.ident = ident
        self.tick = tick
        self.info = info


class _LocationState:
    __slots__ = ("write", "reads", "reported")

    def __init__(self) -> None:
        self.write: Optional[_Epoch] = None
        self.reads: Dict[int, _Epoch] = {}
        self.reported = False


class VectorClockSanitizer:
    """The happens-before engine: per-thread clocks, per-location epochs.

    Args:
        raise_on_race: raise :class:`~repro.errors.CheckError` at the
            racing access instead of accumulating into :attr:`reports`.
        lock_order: optional
            :class:`~repro.check.deadlock.LockOrderRecorder` fed with
            every acquisition edge (for deadlock-cycle analysis of the
            same run).
    """

    def __init__(
        self, raise_on_race: bool = False, lock_order: Optional[Any] = None
    ) -> None:
        self.raise_on_race = raise_on_race
        self.lock_order = lock_order
        self.reports: List[VCRaceReport] = []
        self.accesses_tracked = 0
        self.fastpath_hits = 0
        self.locks_created = 0
        self.sync_events = 0
        self._state_lock = threading.Lock()
        self._threads: Dict[int, _ThreadState] = {}
        self._ident_by_name: Dict[str, int] = {}
        self._pending_forks: Dict[str, Clock] = {}
        self._channels: Dict[str, Clock] = {}
        self._barriers: Dict[str, Clock] = {}
        self._locations: Dict[str, _LocationState] = {}
        self._names = LockNameRegistry()
        self._tokens = ThreadTokens()

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "VectorClockSanitizer":
        """Make this the active sanitizer (see :mod:`repro.check.hooks`).

        Raises:
            CheckError: when a different sanitizer is already active.
        """
        active = _hooks.get_active()
        if active is not None and active is not self:
            raise CheckError("another sanitizer is already installed")
        _hooks.set_active(self)
        return self

    def uninstall(self) -> None:
        """Deactivate (hooks become no-ops again)."""
        if _hooks.get_active() is self:
            _hooks.set_active(None)

    def __enter__(self) -> "VectorClockSanitizer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    @property
    def ok(self) -> bool:
        """True when no races have been reported."""
        return not self.reports

    def render(self) -> str:
        """Terminal summary of the run."""
        lines = [
            f"vector-clock sanitizer: {self.accesses_tracked} accesses "
            f"across {len(self._locations)} locations, "
            f"{self.locks_created} tracked locks, {self.sync_events} sync "
            f"events, {len(self.reports)} race(s)"
        ]
        for report in self.reports:
            lines.append(report.render())
        return "\n".join(lines)

    # -- thread bookkeeping ---------------------------------------------
    # Safe with or without the state lock: a thread only ever creates
    # and mutates its own entry, and the individual dict operations are
    # GIL-atomic.
    def _me(self) -> _ThreadState:
        ident = self._tokens.current()
        state = self._threads.get(ident)
        if state is None:
            name = threading.current_thread().name
            state = self._threads[ident] = _ThreadState(ident, name)
            pending = self._pending_forks.pop(name, None)
            if pending is not None:
                _merge(state.clock, pending)
            self._ident_by_name[name] = ident
        return state

    def _tick(self, state: _ThreadState) -> None:
        state.clock[state.ident] = state.clock.get(state.ident, 0) + 1

    # -- hook surface (called via repro.check.hooks) -------------------
    def make_lock(self, name: str) -> VCTrackedLock:
        with self._state_lock:
            unique = self._names.unique(name)
            self.locks_created += 1
        return VCTrackedLock(self, unique)

    def wrap_store(self, store: Any) -> SanitizedLabelStore:
        return SanitizedLabelStore(store, self)

    # Lock acquire/release run WITHOUT the state lock: they are the
    # per-commit hot path, and everything they touch has a natural
    # owner — ``state`` belongs to the current thread, ``lock.clock``
    # is only read/written while *holding* that lock, and the dict
    # lookups in ``_me`` are GIL-atomic.  Taking the global state lock
    # here triply serialized every commit across workers.
    def _on_acquire(self, lock: VCTrackedLock) -> None:
        state = self._me()
        _merge(state.clock, lock.clock)
        if self.lock_order is not None:
            self.lock_order.note_acquire(tuple(state.held), lock.name)
        state.held.append(lock.name)

    def _on_release(self, lock: VCTrackedLock) -> None:
        state = self._me()
        _merge(lock.clock, state.clock)
        self._tick(state)
        held = state.held
        for i in range(len(held) - 1, -1, -1):
            if held[i] == lock.name:
                del held[i]
                break

    def thread_fork(self, child_name: str) -> None:
        with self._state_lock:
            state = self._me()
            self._pending_forks[child_name] = dict(state.clock)
            self._tick(state)
            self.sync_events += 1

    def thread_join(self, child_name: str) -> None:
        # The hook is called after the real Thread.join returns, so the
        # child's clock is quiescent and safe to read here.
        with self._state_lock:
            state = self._me()
            ident = self._ident_by_name.get(child_name)
            child = self._threads.get(ident) if ident is not None else None
            if child is not None:
                _merge(state.clock, child.clock)
            self.sync_events += 1

    def send_event(self, channel: str) -> Clock:
        with self._state_lock:
            state = self._me()
            token = dict(state.clock)
            chan = self._channels.setdefault(channel, {})
            _merge(chan, token)
            self._tick(state)
            self.sync_events += 1
            return token

    def recv_event(self, channel: str, token: Optional[Clock] = None) -> None:
        with self._state_lock:
            state = self._me()
            source = token if token is not None else self._channels.get(channel)
            if source:
                _merge(state.clock, source)
            self.sync_events += 1

    def barrier_event(self, name: str, phase: str) -> None:
        with self._state_lock:
            state = self._me()
            clock = self._barriers.setdefault(name, {})
            if phase == "arrive":
                _merge(clock, state.clock)
                self._tick(state)
            else:
                _merge(state.clock, clock)
            self.sync_events += 1

    # -- the race check ------------------------------------------------
    def record_access(self, location: str, write: bool = True) -> None:
        report: Optional[VCRaceReport] = None
        with self._state_lock:
            self.accesses_tracked += 1
            state = self._me()
            ident = state.ident
            tick = state.clock.get(ident, 0)
            loc = self._locations.get(location)
            if loc is None:
                loc = self._locations[location] = _LocationState()
            prev = loc.write
            if (
                write
                and prev is not None
                and prev.ident == ident
                and not loc.reads
            ):
                # Same-owner re-write (the FastTrack "same epoch" hot
                # path): ordered after our own previous write by
                # program order, and with no reads since there is
                # nothing new to check.  Refresh the epoch in place and
                # keep the streak-opening stack as the diagnostic.
                prev.tick = tick
                prev.info.tick = tick
                self.fastpath_hits += 1
                return
            # Skip this frame and the hook/proxy frame that called it.
            info = VCAccess(
                thread=state.name,
                ident=ident,
                tick=tick,
                write=write,
                stack=_capture_stack(2),
            )
            racing = self._conflict(loc, state.clock, ident, write)
            if racing is not None and not loc.reported:
                report = VCRaceReport(
                    location=location, first=racing.info, second=info
                )
                self.reports.append(report)
                loc.reported = True
            epoch = _Epoch(ident, tick, info)
            if write:
                loc.write = epoch
                loc.reads = {}
            else:
                loc.reads[ident] = epoch
        if report is not None and self.raise_on_race:
            raise CheckError(report.render())

    def _conflict(
        self, loc: _LocationState, clock: Clock, ident: int, write: bool
    ) -> Optional[_Epoch]:
        """The first prior epoch not ordered before this access, if any."""
        prev = loc.write
        if prev is not None and prev.ident != ident:
            if clock.get(prev.ident, 0) < prev.tick:
                return prev
        if write:
            for read in loc.reads.values():
                if read.ident != ident and (
                    clock.get(read.ident, 0) < read.tick
                ):
                    return read
        return None


def get_vc_sanitizer() -> Optional[VectorClockSanitizer]:
    """The currently installed vector-clock sanitizer, or ``None``."""
    active = _hooks.get_active()
    return active if isinstance(active, VectorClockSanitizer) else None


def enable_from_env() -> Optional[VectorClockSanitizer]:
    """Install a sanitizer if ``PARAPLL_SANITIZE`` is set truthy.

    Any truthy value (``1``, ``vc``, ...) installs a
    :class:`VectorClockSanitizer`.  Returns the installed sanitizer
    (new or pre-existing) or ``None`` when the flag is unset.  Used by
    the test suite's conftest so CI can run the tier-1 thread tests
    sanitized with one env var.
    """
    value = os.environ.get(ENV_FLAG, "").lower()
    if value in ("", "0", "false", "no"):
        return None
    existing = _hooks.get_active()
    if existing is not None:
        return existing
    return VectorClockSanitizer().install()


@dataclass
class _StressResult:
    """Outcome of :func:`stress_threads` (the ``check races`` CLI)."""

    sanitizer: VectorClockSanitizer
    builds: int = 0
    vertices: int = 0


def stress_threads(
    num_threads: int = 4,
    repeats: int = 3,
    n: int = 120,
    m: int = 400,
    seed: int = 7,
    sanitizer: Optional[VectorClockSanitizer] = None,
    cluster: bool = False,
) -> _StressResult:
    """Run sanitized threaded builds as a race-hunting stress load.

    Builds a seeded random graph and runs the shared-memory builder
    ``repeats`` times per policy with the sanitizer installed (a fresh
    :class:`VectorClockSanitizer` by default; pass one to attach a
    ``lock_order`` recorder).  With ``cluster=True`` each repeat also
    runs the thread-backed cluster build, exercising the ``ThreadComm``
    envelope/barrier paths.  Violations show up in
    ``result.sanitizer.reports``.
    """
    from repro.generators.random_graphs import gnm_random_graph
    from repro.parallel.threads import build_parallel_threads

    graph = gnm_random_graph(n, m, seed=seed)
    if sanitizer is None:
        sanitizer = VectorClockSanitizer()
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
