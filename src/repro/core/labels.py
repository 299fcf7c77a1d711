"""The 2-hop-cover label store.

``L(v)`` is a set of ``(hub, distance)`` pairs meaning "the distance
from hub to v is exactly d".  Internally hubs are stored by *rank* —
their position in the vertex ordering — because the pruning query is a
dense array lookup keyed by rank, and because rank order is the natural
sort order for the merge-join query.

Two layouts, one per lifecycle phase:

* **Mutable phase** — one label *arena* shared by every vertex:
  ``ah: int32[A]`` hub ranks and ``ad: float64[A]`` distances.  Vertex
  ``v`` owns the run ``[off[v], off[v] + size[v])`` and has room for
  ``cap[v]`` entries there.  A full run moves to the arena's end with
  twice the capacity; a full arena compacts into fresh arrays, which
  drops the runs left behind by moves.  The compiled pruning kernel
  scans the runs as plain arrays (:meth:`arena`), the Python readers
  (:meth:`hubs_of` / :meth:`dists_of`) get list copies of a run, and
  every append writes the arena in place (:meth:`add_root` in compiled
  code, the others as vectorised numpy writes), so the arena is the
  only copy of the labels.
* **Finalized phase** — one flat CSR triple (``indptr: int64[n+1]``,
  ``hubs: int64[E]``, ``dists: float64[E]``), built once by
  :meth:`finalize`, which then drops the arena.
  :meth:`finalized_hubs` / :meth:`finalized_dists` are zero-copy slices
  into the flat arrays, :meth:`to_arrays` is a near-no-op, and
  :meth:`from_arrays` *adopts* arrays directly (no re-sort), which is
  what makes :meth:`PLLIndex.load <repro.core.index.PLLIndex.load>`
  O(1) instead of O(E).

A finalized store, and one built by :meth:`from_arrays`, is *frozen*:
it has no arena until the first mutation, which thaws it (one
vectorised O(E) copy).  Read accessors work directly off the CSR arrays
while frozen.

Concurrent readers need no lock; writers are serialised by the caller.
A writer stores the entries first, then publishes ``off``, then
``size``, and a compaction swaps all the arena arrays as one tuple.  A
reader that takes the tuple once and reads ``size[v]`` before
``off[v]`` therefore sees only whole, published entries.
"""

from __future__ import annotations

import ctypes
import numbers
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.errors import GraphError, NotIndexedError

__all__ = ["Delta", "LabelStore"]

#: Capacity of a vertex's run at its first append.
_RUN_MIN = 4
#: Smallest arena, in entries.
_ARENA_MIN = 1024
_INT32 = np.iinfo(np.int32)

#: ``(off, size, ah, ad, cap)``: see :meth:`LabelStore.arena`.
Arena = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: The finalized CSR triple ``(indptr, hubs, dists)``.
Csr = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Slots of the store's context array (``native.STORE_SLOTS``).
_SLOT = {name: i for i, name in enumerate(native.STORE_SLOTS)}


class Delta:
    """One root's label entries: ``L(verts[i])`` gets ``dists[i]`` under
    the root's hub rank.

    ``verts`` (int64) and ``dists`` (float64) are read-only arrays of
    equal length; ``len()`` is the entry count, and iteration and
    indexing give ``(vertex, distance)`` pairs of Python numbers.  A
    delta equals another delta, or any sequence of pairs, with the same
    entries in the same order.

    ``Delta(verts, dists)`` copies its arguments.  The pruned-search
    engines build theirs with :meth:`view`, over buffers they own.
    """

    __slots__ = ("verts", "dists", "_ptrs")

    def __init__(self, verts: Sequence[int], dists: Sequence[float]) -> None:
        vs = np.array(verts)
        ds = np.array(dists)
        if not (
            vs.ndim == ds.ndim == 1 and len(vs) == len(ds)
            and (not len(vs) or vs.dtype.kind in "iu" and ds.dtype.kind in "iuf")
        ):
            raise GraphError(
                "a delta needs equal-length 1-D integer vertices and "
                "numeric distances"
            )
        vs = vs.astype(np.int64)
        ds = ds.astype(np.float64)
        if np.isnan(ds).any():
            raise GraphError("a delta distance is not a number")
        vs.setflags(write=False)
        ds.setflags(write=False)
        self.verts = vs
        self.dists = ds
        self._ptrs = (vs.ctypes.data, ds.ctypes.data)

    @classmethod
    def view(
        cls, verts: np.ndarray, dists: np.ndarray, vptr: int, dptr: int
    ) -> "Delta":
        """A delta over read-only int64 *verts* and float64 *dists*, held
        as they are; *vptr* and *dptr* are their data addresses."""
        delta = cls.__new__(cls)
        delta.verts = verts
        delta.dists = dists
        delta._ptrs = (vptr, dptr)
        return delta

    def __len__(self) -> int:
        return len(self.verts)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return zip(self.verts.tolist(), self.dists.tolist())

    def __getitem__(self, i: int) -> Tuple[int, float]:
        return self.verts.item(i), self.dists.item(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Delta):
            return np.array_equal(self.verts, other.verts) and np.array_equal(
                self.dists, other.dists
            )
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Delta({list(self)!r})"


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + k) for s, k in zip(starts, lengths)])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(total)


def _gather(arena: Arena) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every published run of *arena*, concatenated in vertex order:
    ``(sizes, hubs: int32, dists: float64)``."""
    off, size, ah, ad, _cap = arena
    # size before off, as every reader reads them.
    sizes = size.copy()
    idx = _ranges(off.copy(), sizes)
    return sizes, ah[idx], ad[idx]


def _sort_dedup_flat(
    n: int, arena: Arena
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The arena's published runs as a sorted, deduplicated CSR triple.

    A serial build commits hubs in rank order, so every run is usually
    strictly increasing already: one comparison over the gathered runs
    shows it, and the runs are then the CSR arrays as they stand.  Any
    other store (parallel builds, :meth:`LabelStore.merge_from`) goes
    through :func:`_sort_dedup_entries`.
    """
    sizes, hubs, dists = _gather(arena)
    step = np.empty(len(hubs), dtype=bool)
    if len(hubs):
        np.greater(hubs[1:], hubs[:-1], out=step[1:])
        starts = np.cumsum(sizes) - sizes
        step[starts[sizes > 0]] = True
    if step.all():
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return indptr, hubs.astype(np.int64), dists
    return _sort_dedup_entries(
        n,
        np.repeat(np.arange(n, dtype=np.int64), sizes),
        hubs.astype(np.int64),
        dists,
    )


def _sort_dedup_entries(
    n: int, owner: np.ndarray, hubs: np.ndarray, dists: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``(vertex, hub rank, dist)`` entries, in any order, as a
    sorted, deduplicated CSR triple ``(indptr, hubs, dists)``.

    Entries are sorted by (vertex, hub rank, distance) in one global
    ``lexsort``; duplicated (vertex, hub) pairs — which arise from
    delayed synchronisation — keep the smallest distance, which by
    construction is the true distance (every stored distance for the
    same pair comes from an exact Dijkstra run from the hub).  The
    returned arrays never alias the inputs.
    """
    total = len(hubs)
    if total:
        order = np.lexsort((dists, hubs, owner))
        hubs = hubs[order]
        dists = dists[order]
        owner = owner[order]
        keep = np.empty(total, dtype=bool)
        keep[0] = True
        keep[1:] = (hubs[1:] != hubs[:-1]) | (owner[1:] != owner[:-1])
        hubs = hubs[keep]
        dists = dists[keep]
        owner = owner[keep]
        counts = np.bincount(owner, minlength=n)
    else:
        hubs = np.empty(0, dtype=np.int64)
        dists = np.empty(0, dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, hubs, dists


def _validate_csr(
    indptr: np.ndarray, hubs: np.ndarray, dists: np.ndarray
) -> None:
    """Reject structurally corrupt CSR label arrays.

    Raises:
        GraphError: naming the first offending vertex, for decreasing
            ``indptr`` runs, out-of-range hub ranks, or per-vertex hub
            runs that are not strictly increasing (unsorted or
            duplicated hubs).
    """
    n = len(indptr) - 1
    diffs = np.diff(indptr)
    bad = np.flatnonzero(diffs < 0)
    if bad.size:
        raise GraphError(
            f"label indptr decreases at vertex {int(bad[0])} "
            f"({int(indptr[bad[0]])} -> {int(indptr[bad[0] + 1])})"
        )
    num_entries = len(hubs)
    if num_entries == 0:
        return
    if int(hubs.min()) < 0 or int(hubs.max()) >= n:
        pos = int(np.flatnonzero((hubs < 0) | (hubs >= n))[0])
        v = int(np.searchsorted(indptr, pos, side="right") - 1)
        raise GraphError(
            f"hub rank {int(hubs[pos])} out of range [0, {n}) in L({v})"
        )
    run_start = np.zeros(num_entries, dtype=bool)
    starts = indptr[:-1]
    run_start[starts[starts < num_entries]] = True
    bad = np.flatnonzero(~run_start[1:] & (hubs[1:] <= hubs[:-1]))
    if bad.size:
        pos = int(bad[0]) + 1
        v = int(np.searchsorted(indptr, pos, side="right") - 1)
        kind = (
            "duplicated" if int(hubs[pos]) == int(hubs[pos - 1]) else "unsorted"
        )
        raise GraphError(f"label hubs of vertex {v} are {kind}")


def _contiguous(a: object, dtype: type) -> np.ndarray:
    """*a* as a C-contiguous array of the native *dtype*; an array that
    already is one, an ``np.memmap`` included, is returned as it is."""
    if (
        isinstance(a, np.ndarray)
        and a.dtype == dtype
        and a.flags.c_contiguous
    ):
        return a
    return np.ascontiguousarray(a, dtype=dtype)


def _entry_fault(n: int, v: object, h: object, d: object) -> Optional[str]:
    """Why ``(v, h, d)`` cannot be a label entry of an *n*-vertex store,
    or None."""
    if not (isinstance(v, numbers.Integral) and 0 <= v < n):
        return f"vertex is not an integer in [0, {n})"
    if not (isinstance(h, numbers.Integral) and _INT32.min <= h <= _INT32.max):
        return "hub rank is not an int32 integer"
    if not isinstance(d, numbers.Real) or d != d:
        return "distance is not a number"
    return None


def _bad_entry(v: object, h: object, d: object, why: str) -> GraphError:
    return GraphError(
        f"label entry (vertex {v!r}, hub {h!r}, distance {d!r}): {why}",
        vertex=v, hub=h,
    )


class LabelStore:
    """Per-vertex labels keyed by hub rank.

    Args:
        n: number of vertices.

    The store starts empty (the paper's ``L_0``).  Builders append with
    :meth:`add`, :meth:`add_delta`, :meth:`add_root` or
    :meth:`extend_from_arrays`; the pruning query reads through
    :meth:`arena` or :meth:`hubs_of` / :meth:`dists_of`;
    :meth:`finalize` freezes the store into the flat CSR form.
    """

    __slots__ = (
        "n",
        "_arena",
        "_cx",
        "_cx_addr",
        "_finalized_indptr",
        "_finalized_hubs",
        "_finalized_dists",
        "_query",
    )

    #: The public methods that change the labels.  The race detector's
    #: write-tracking proxy records a write for each of them.
    MUTATORS = ("add", "add_delta", "add_root", "extend_from_arrays", "merge_from")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError("label store size must be non-negative")
        self.n = n
        runs = np.zeros(n, dtype=np.int64)
        self._new_context()
        self._set_arena((
            runs,
            runs.copy(),
            np.empty(_ARENA_MIN, dtype=np.int32),
            np.empty(_ARENA_MIN, dtype=np.float64),
            runs.copy(),
        ), 0)
        self._set_finalized(None)

    # ------------------------------------------------------------------
    # Arena management
    # ------------------------------------------------------------------
    def _new_context(self) -> None:
        """A fresh context array for ``ls_append``, with no arena yet."""
        self._cx = np.zeros(len(_SLOT), dtype=np.int64)
        self._cx[_SLOT["n"]] = self.n
        self._cx[_SLOT["run_min"]] = _RUN_MIN
        self._cx_addr = self._cx.ctypes.data

    def _set_arena(self, arena: Optional[Arena], end: int) -> None:
        """Adopt *arena* with its first unowned slot at *end*, and point
        the context array at it."""
        self._arena = arena
        cx = self._cx
        if arena is not None:
            off, size, ah, ad, cap = arena
            cx[_SLOT["off"]:_SLOT["na"] + 1] = (
                off.ctypes.data, size.ctypes.data, ah.ctypes.data,
                ad.ctypes.data, cap.ctypes.data, len(ah),
            )
        cx[_SLOT["end"]] = end

    def _thaw(self) -> None:
        """Rebuild the arena from the CSR arrays; the store then owns
        the labels in the arena only."""
        indptr = self._finalized_indptr
        size = np.diff(indptr)
        hubs = np.array(self._finalized_hubs, dtype=np.int32)
        self._set_arena((
            np.array(indptr[:-1], dtype=np.int64),
            size,
            hubs,
            np.array(self._finalized_dists, dtype=np.float64),
            size.copy(),
        ), len(hubs))
        self._invalidate()

    def _invalidate(self) -> None:
        self._set_finalized(None)

    def _set_finalized(self, triple: Optional[Csr]) -> None:
        """Adopt *triple*, C-contiguous ``(indptr: int64, hubs: int64,
        dists: float64)`` arrays, as the finalized labels, or drop them
        (None).

        Fills the query context (``native.QUERY_SLOTS``) of
        :meth:`query_context`.  The per-vertex slices and the context
        read plain ``ndarray`` views of the arrays (copies, should one
        not be C-contiguous of its dtype): element access on an
        ``np.memmap`` costs several times more, and a view keeps the
        mapping alive.
        """
        if triple is None:
            self._finalized_indptr = None
            self._finalized_hubs = None
            self._finalized_dists = None
            self._query = None
            return
        self._finalized_indptr, self._finalized_hubs, self._finalized_dists = (
            triple
        )
        indptr, hubs, dists = views = tuple(
            _contiguous(a, dtype).view(np.ndarray)
            for a, dtype in zip(triple, (np.int64, np.int64, np.float64))
        )
        slots = {
            "n": self.n, "ne": len(hubs), "indptr": indptr.ctypes.data,
            "hubs": hubs.ctypes.data, "dists": dists.ctypes.data,
        }
        cx = np.array([slots[name] for name in native.QUERY_SLOTS], np.int64)
        self._query = (cx.ctypes.data, cx) + views

    def _reserve(self, verts: np.ndarray, need: np.ndarray) -> None:
        """Give each run of *verts* room for *need* entries: move it to
        the arena's end with at least twice its capacity, or compact
        when the arena has no room left."""
        off, size, ah, ad, cap = self._arena
        new_cap = np.maximum(np.maximum(2 * cap[verts], need), _RUN_MIN)
        total = int(new_cap.sum())
        end = int(self._cx[_SLOT["end"]])
        if end + total > len(ah):
            self._compact(verts, new_cap)
            return
        starts = end + np.cumsum(new_cap) - new_cap
        have = size[verts]
        src = _ranges(off[verts], have)
        dst = _ranges(starts, have)
        ah[dst] = ah[src]
        ad[dst] = ad[src]
        off[verts] = starts
        cap[verts] = new_cap
        self._cx[_SLOT["end"]] = end + total

    def _compact(self, verts: np.ndarray, new_cap: np.ndarray) -> None:
        """Copy every run into fresh arrays, back to back, with *verts*
        at capacity *new_cap*, and swap them in as one tuple."""
        off, size, ah, ad, cap = self._arena
        cap = cap.copy()
        cap[verts] = new_cap
        live = int(cap.sum())
        length = max(2 * live, _ARENA_MIN)
        new_off = np.cumsum(cap) - cap
        have = size.copy()
        src = _ranges(off, have)
        dst = _ranges(new_off, have)
        new_ah = np.empty(length, dtype=np.int32)
        new_ad = np.empty(length, dtype=np.float64)
        new_ah[dst] = ah[src]
        new_ad[dst] = ad[src]
        self._set_arena((new_off, have, new_ah, new_ad, cap), live)

    def _append(
        self,
        verts: np.ndarray,
        hubs: object,
        dists: np.ndarray,
        distinct: bool,
    ) -> int:
        """Append entries ``(verts[i], hubs[i], dists[i])``, each vertex's
        in the given order.  *hubs* may be one rank for all; *distinct*
        says no vertex repeats.  The caller has checked the values."""
        k = len(verts)
        if not k:
            return 0
        if self._arena is None:
            self._thaw()
        if distinct:
            uniq, counts = verts, 1
        else:
            order = np.argsort(verts, kind="stable")
            verts = verts[order]
            if isinstance(hubs, np.ndarray):
                hubs = hubs[order]
            dists = dists[order]
            uniq, first, counts = np.unique(
                verts, return_index=True, return_counts=True
            )
        off, size, ah, ad, cap = self._arena
        have = size[uniq]
        need = have + counts
        full = need > cap[uniq]
        if full.any():
            self._reserve(uniq[full], need[full])
            off, size, ah, ad, cap = self._arena
        pos = off[uniq] + have
        if not distinct:
            pos = np.repeat(pos - first, counts) + np.arange(k)
        ah[pos] = hubs
        ad[pos] = dists
        size[uniq] = need
        self._invalidate()
        return k

    def _checked(
        self, verts: object, hub_ranks: object, dists: object
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel entry sequences as int64/int64/float64 arrays.

        Raises:
            GraphError: naming the first entry whose vertex is outside
                ``[0, n)``, whose hub rank is not an int32 integer, or
                whose distance is not a number.
        """
        vs = np.asarray(verts)
        hs = np.asarray(hub_ranks)
        ds = np.asarray(dists)
        if not (vs.ndim == hs.ndim == ds.ndim == 1 and len(vs) == len(hs) == len(ds)):
            raise GraphError("verts, hub_ranks and dists must be equal-length 1-D")
        ok = (
            vs.dtype.kind in "iu" and hs.dtype.kind in "iu"
            and ds.dtype.kind in "iuf"
        )
        if ok:
            vs = vs.astype(np.int64, copy=False)
            hs = hs.astype(np.int64, copy=False)
            ds = ds.astype(np.float64, copy=False)
            ok = not (
                (vs < 0) | (vs >= self.n)
                | (hs < _INT32.min) | (hs > _INT32.max)
                | np.isnan(ds)
            ).any()
        if not ok and len(vs):
            for v, h, d in zip(verts, hub_ranks, dists):
                why = _entry_fault(self.n, v, h, d)
                if why is not None:
                    raise _bad_entry(v, h, d, why)
            raise GraphError(
                f"label entries need integer vertices and hub ranks and "
                f"numeric distances, not {vs.dtype}/{hs.dtype}/{ds.dtype}"
            )
        return vs, hs, ds

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, v: int, hub_rank: int, dist: float) -> None:
        """Append one label entry ``(hub_rank, dist)`` to ``L(v)``.

        Raises:
            GraphError: for a vertex outside ``[0, n)``, a hub rank that
                is not an int32 integer, or a distance that is not a
                number.
        """
        why = _entry_fault(self.n, v, hub_rank, dist)
        if why is not None:
            raise _bad_entry(v, hub_rank, dist, why)
        # The one-entry form of _append, in scalars: the dynamic index,
        # the directed builder and the sync merges call it per entry.
        if self._arena is None:
            self._thaw()
        off, size, ah, ad, cap = self._arena
        k = int(size[v])
        if k == cap[v]:
            self._reserve(np.array([v]), np.array([k + 1]))
            off, size, ah, ad, cap = self._arena
        p = int(off[v]) + k
        ah[p] = hub_rank
        ad[p] = dist
        size[v] = k + 1
        self._invalidate()

    def add_delta(self, delta: Iterable[Tuple[int, int, float]]) -> int:
        """Bulk-append ``(v, hub_rank, dist)`` triples; returns the count.

        Duplicate (v, hub) pairs are tolerated (they arise from delayed
        synchronisation); queries take a min so duplicates are harmless,
        and :meth:`finalize` deduplicates keeping the smallest distance.
        Raises :class:`GraphError` as :meth:`add` does.
        """
        triples = list(delta)
        if not triples:
            return 0
        return self._append(*self._checked(*zip(*triples)), distinct=False)

    def add_root(self, hub_rank: int, delta: Delta) -> int:
        """Append one root's :class:`Delta`: ``(hub_rank, dists[i])`` to
        ``L(verts[i])``; returns the number of entries appended.

        The vertices must be distinct, as in a delta from
        :meth:`~repro.core.pruned_dijkstra.PrunedDijkstra.run`.  With the
        compiled library the entries go into the arena in place, moving
        full runs to the arena's end in C; only a full arena comes back
        here, to :meth:`_compact`.  Without it, :meth:`_append` writes
        them with numpy.

        Raises:
            GraphError: for a vertex outside ``[0, n)`` or a hub rank
                that is not an int32 integer, before anything is
                written.
        """
        k = len(delta)
        if not k:
            return 0
        if self._arena is None:
            self._thaw()
        lib = native.load()
        if lib is None:
            verts = delta.verts
            if not (
                isinstance(hub_rank, numbers.Integral)
                and _INT32.min <= hub_rank <= _INT32.max
                and verts.min() >= 0 and verts.max() < self.n
            ):
                raise self._bad_root(hub_rank, delta)
            return self._append(verts, hub_rank, delta.dists, distinct=True)
        vptr, dptr = delta._ptrs
        cx = self._cx_addr
        i = 0
        while True:
            try:
                i = lib.ls_append(cx, hub_rank, vptr, dptr, i, k)
            except ctypes.ArgumentError:
                i = -1
            if i == k:
                return k
            if i < 0:
                raise self._bad_root(hub_rank, delta)
            # The arena has no room to move L(v): compact, then resume.
            v = delta.verts[i:i + 1]
            self._reserve(v, self._arena[1][v] + 1)

    def _bad_root(self, hub_rank: object, delta: Delta) -> GraphError:
        """The error :meth:`add_root` raises for *delta*'s first bad
        entry under *hub_rank*."""
        for v, d in delta:
            why = _entry_fault(self.n, v, hub_rank, d)
            if why is not None:
                return _bad_entry(v, hub_rank, d, why)
        return GraphError(f"bad hub rank {hub_rank!r} for a label delta")

    def extend_from_arrays(
        self,
        verts: Sequence[int],
        hub_ranks: Sequence[int],
        dists: Sequence[float],
    ) -> int:
        """Bulk-append parallel ``verts/hub_ranks/dists`` arrays.

        The array-triple twin of :meth:`add_delta`, used to sync a
        process-local mirror from the shared committed-label log (see
        :mod:`repro.parallel.shm`) without materialising tuples.
        Duplicate (v, hub) pairs are tolerated exactly as in
        :meth:`add_delta`.  Returns the number of entries appended.
        """
        return self._append(
            *self._checked(verts, hub_ranks, dists), distinct=False
        )

    # ------------------------------------------------------------------
    # Read access (pruning path)
    # ------------------------------------------------------------------
    def arena(self) -> Optional[Arena]:
        """The mutable phase's arrays ``(off, size, ah, ad, cap)`` (do
        not mutate), or None for a frozen store.

        ``L(v)`` is ``ah[off[v]:off[v] + size[v]]`` (int32 hub ranks)
        with ``ad`` (float64 distances) alongside; ``cap`` is the
        writer's.  Take the tuple once per read, read ``size[v]``
        before ``off[v]``, and only published entries are visible.  The
        compiled pruning kernel reads these arrays in place.
        """
        return self._arena

    def _run(self, v: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        arena = self._arena
        if arena is None:
            return None
        k = arena[1].item(v)
        o = arena[0].item(v)
        return arena[2][o:o + k], arena[3][o:o + k]

    def hubs_of(self, v: int) -> Sequence[int]:
        """Hub ranks of ``L(v)``: a list copy of the run, or on a frozen
        store a zero-copy CSR slice."""
        run = self._run(v)
        if run is None:
            return self.finalized_hubs(v)
        return run[0].tolist()

    def dists_of(self, v: int) -> Sequence[float]:
        """Distances of ``L(v)``, parallel to :meth:`hubs_of`."""
        run = self._run(v)
        if run is None:
            return self.finalized_dists(v)
        return run[1].tolist()

    def entries_of(self, v: int) -> List[Tuple[int, float]]:
        """``(hub_rank, dist)`` pairs of ``L(v)`` (copied)."""
        run = self._run(v)
        if run is None:
            run = self.finalized_hubs(v), self.finalized_dists(v)
        return list(zip(run[0].tolist(), run[1].tolist()))

    def label_size(self, v: int) -> int:
        """Number of entries in ``L(v)``."""
        if self._arena is not None:
            return int(self._arena[1][v])
        indptr = self._finalized_indptr
        return int(indptr[v + 1] - indptr[v])

    def label_sizes(self) -> List[int]:
        """Per-vertex label sizes."""
        if self._arena is not None:
            return self._arena[1].tolist()
        return np.diff(self._finalized_indptr).tolist()

    @property
    def total_entries(self) -> int:
        """Total entries across all vertices."""
        if self._arena is not None:
            return int(self._arena[1].sum())
        return len(self._finalized_hubs)

    @property
    def avg_label_size(self) -> float:
        """The paper's "LN": mean entries per vertex."""
        return self.total_entries / self.n if self.n else 0.0

    # ------------------------------------------------------------------
    # Finalisation (query stage)
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Sort each label by hub rank, deduplicate, and freeze to CSR.

        Safe to call repeatedly; re-finalises only after mutations (and
        is a no-op on a store adopted via :meth:`from_arrays`).
        Duplicated hubs (from delayed synchronisation) keep the smallest
        distance — which by construction is the true distance, since any
        stored distance for the same (hub, v) pair is produced by an
        exact Dijkstra from the hub.  The arena is dropped: the CSR
        arrays are the only copy of the labels until the next mutation.
        """
        if self._arena is None:
            return
        self._set_finalized(_sort_dedup_flat(self.n, self._arena))
        self._set_arena(None, 0)

    def finalized_hubs(self, v: int) -> np.ndarray:
        """Sorted, deduplicated hub ranks of ``L(v)``: a zero-copy slice
        of the flat CSR array (after finalize), a plain ``ndarray`` also
        when the array is memory-mapped."""
        query = self._query
        if query is None:
            raise NotIndexedError("call LabelStore.finalize() first")
        indptr = query[2]
        return query[3][indptr.item(v):indptr.item(v + 1)]

    def finalized_dists(self, v: int) -> np.ndarray:
        """Distances parallel to :meth:`finalized_hubs` (zero-copy)."""
        query = self._query
        if query is None:
            raise NotIndexedError("call LabelStore.finalize() first")
        indptr = query[2]
        return query[4][indptr.item(v):indptr.item(v + 1)]

    def finalized_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat CSR triple ``(indptr, hubs, dists)`` (finalizing
        first if needed).

        This is the sanctioned accessor for vectorised passes over the
        whole triple (stats, audit) and serialisation; the arrays are
        shared with the store — treat them as read-only.
        """
        self.finalize()
        return self._finalized_indptr, self._finalized_hubs, self._finalized_dists

    def query_context(self) -> Optional[Tuple[object, ...]]:
        """The finalized labels' query context, or None before
        :meth:`finalize`.

        A tuple whose first item is the address of an int64 array laid
        out as ``native.QUERY_SLOTS``, for ``pq_join`` and ``pq_batch``
        (:mod:`repro.core.query`); the rest hold that array and the
        arrays it points into, so a caller holding the tuple keeps every
        pointer valid even if the store thaws meanwhile.
        """
        return self._query

    def memory_breakdown(self) -> Dict[str, object]:
        """Per-array memory attribution of the finalized CSR triple.

        Returns:
            dict with per-array byte sizes (``indptr_bytes``,
            ``hubs_bytes``, ``dists_bytes``, ``total_bytes``),
            ``bytes_per_entry`` (0.0 for an empty store), ``mmap``
            (True when the arrays are memory-mapped, i.e. a ``dir``
            bundle loaded with ``mmap=True``), and
            ``resident_bytes_estimate`` — for mmap-backed stores the
            touched-page estimate (indptr is always walked; hub/dist
            pages fault in on demand, so the floor is the indptr size),
            for in-RAM stores simply the total.
        """
        indptr, hubs, dists = self.finalized_arrays()
        indptr_b = int(indptr.nbytes)
        hubs_b = int(hubs.nbytes)
        dists_b = int(dists.nbytes)
        total = indptr_b + hubs_b + dists_b
        is_mmap = any(
            isinstance(a, np.memmap) for a in (indptr, hubs, dists)
        )
        entries = len(hubs)
        return {
            "indptr_bytes": indptr_b,
            "hubs_bytes": hubs_b,
            "dists_bytes": dists_b,
            "total_bytes": total,
            "bytes_per_entry": (
                (hubs_b + dists_b) / entries if entries else 0.0
            ),
            "mmap": is_mmap,
            "resident_bytes_estimate": indptr_b if is_mmap else total,
        }

    # ------------------------------------------------------------------
    # Merging / copying (cluster substrate)
    # ------------------------------------------------------------------
    def copy(self) -> "LabelStore":
        """A deep copy: later mutations of either store do not show in
        the other."""
        if self._arena is None:
            return LabelStore.from_arrays(
                *(np.array(a) for a in self.finalized_arrays()), validate=False
            )
        other = LabelStore.__new__(LabelStore)
        other.n = self.n
        other._new_context()
        other._set_arena(
            tuple(a.copy() for a in self._arena), int(self._cx[_SLOT["end"]])
        )
        other._invalidate()
        return other

    def merge_from(self, delta: Iterable[Tuple[int, int, float]]) -> int:
        """Union ``(v, hub_rank, dist)`` triples into this store; returns
        the entries added.

        Unlike :meth:`add_delta`, (v, hub) pairs already present are
        skipped, so that repeated synchronisation rounds don't inflate
        the store; of a pair *delta* holds twice, its first entry is
        taken.  The union is vectorised: one int64 key per pair.
        Raises :class:`GraphError` as :meth:`add` does.
        """
        triples = list(delta)
        if not triples:
            return 0
        owner, hubs, dists = self._checked(*zip(*triples))
        if self._arena is None:
            self._thaw()
        # Only the runs of the vertices *delta* touches can hold a pair.
        off, size, ah, _ad, _cap = self._arena
        touched = np.unique(owner)
        have = size[touched]
        mine_owner = np.repeat(touched, have)
        mine_hubs = ah[_ranges(off[touched], have)]
        # One int64 key per (vertex, hub) pair; hub ranks fit in int32.
        key = (owner << 32) | (hubs.astype(np.int64) & 0xFFFFFFFF)
        mine = (mine_owner << 32) | (mine_hubs.astype(np.int64) & 0xFFFFFFFF)
        keep = np.zeros(len(key), dtype=bool)
        keep[np.unique(key, return_index=True)[1]] = True
        keep &= ~np.isin(key, mine)
        return self._append(owner[keep], hubs[keep], dists[keep], distinct=False)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The (finalized) store as three flat arrays for ``np.savez``.

        Returns:
            dict with ``indptr`` (int64, n+1), ``hubs`` (int64) and
            ``dists`` (float64).  The arrays are the store's own CSR
            arrays (zero-copy) — treat them as read-only.
        """
        indptr, hubs, dists = self.finalized_arrays()
        return {"indptr": indptr, "hubs": hubs, "dists": dists}

    @classmethod
    def from_arrays(
        cls,
        indptr: Sequence[int],
        hubs: Sequence[int],
        dists: Sequence[float],
        validate: bool = True,
    ) -> "LabelStore":
        """Adopt a CSR triple produced by :meth:`to_arrays` — zero-copy.

        The arrays become the finalized representation directly (no
        arena, no re-sort, no re-dedup); the returned
        store is frozen until the first mutation thaws it.  Memory-mapped
        arrays are adopted as-is, so a loaded index can serve queries
        without materialising the labels in RAM; only arrays that are
        not C-contiguous or of another dtype are copied.

        Args:
            indptr: int64 ``n+1`` CSR row pointer.
            hubs: int64 hub ranks, strictly increasing per vertex.
            dists: float64 distances parallel to *hubs*.
            validate: structurally validate the arrays (monotone
                ``indptr``, in-range sorted hub runs).  Only disable for
                arrays straight out of :meth:`to_arrays`.

        Raises:
            GraphError: for structurally invalid arrays (with the
                offending vertex named).
        """
        indptr = _contiguous(indptr, np.int64)
        hubs = _contiguous(hubs, np.int64)
        dists = _contiguous(dists, np.float64)
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(hubs):
            raise GraphError("invalid label indptr")
        if len(hubs) != len(dists):
            raise GraphError("hubs and dists must have equal length")
        if validate:
            _validate_csr(indptr, hubs, dists)
        store = cls.__new__(cls)
        store.n = len(indptr) - 1
        store._arena = None
        store._new_context()
        store._set_finalized((indptr, hubs, dists))
        return store

    @classmethod
    def from_entries(
        cls,
        n: int,
        verts: np.ndarray,
        hub_ranks: np.ndarray,
        dists: np.ndarray,
    ) -> "LabelStore":
        """A finalized store from flat parallel entry arrays, in any
        order, with the same sort and dedup as :meth:`finalize`.

        Builds the CSR triple straight from the arrays, with no arena;
        the returned store is frozen like one from :meth:`from_arrays`.
        """
        return cls.from_arrays(
            *_sort_dedup_entries(
                n,
                np.asarray(verts, dtype=np.int64),
                np.asarray(hub_ranks, dtype=np.int64),
                np.asarray(dists, dtype=np.float64),
            ),
            validate=False,
        )

    # ------------------------------------------------------------------
    def _min_entry_map(self, v: int) -> Dict[int, float]:
        """``hub -> min distance`` for ``L(v)``, duplicate-safe."""
        out: Dict[int, float] = {}
        for h, d in self.entries_of(v):
            h = int(h)
            prev = out.get(h)
            if prev is None or d < prev:
                out[h] = d
        return out

    def __eq__(self, other: object) -> bool:
        """Set equality of label entries, distance-aware.

        Duplicated hubs (delayed synchronisation) are reduced with min
        before comparing, so two stores holding the same *semantic*
        labels compare equal regardless of duplicate order.
        """
        if not isinstance(other, LabelStore):
            return NotImplemented
        if self.n != other.n:
            return False
        for v in range(self.n):
            if self._min_entry_map(v) != other._min_entry_map(v):
                return False
        return True

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabelStore(n={self.n}, entries={self.total_entries}, "
            f"avg={self.avg_label_size:.1f})"
        )
