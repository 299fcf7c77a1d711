"""The 2-hop-cover label store.

``L(v)`` is a set of ``(hub, distance)`` pairs meaning "the distance
from hub to v is exactly d".  Internally hubs are stored by *rank* —
their position in the vertex ordering — because the pruning query is a
dense array lookup keyed by rank, and because rank order is the natural
sort order for the merge-join query.

Two layouts, one per lifecycle phase:

* **Mutable phase** — two parallel Python lists per vertex
  (``_hubs[v]``, ``_dists[v]``).  Plain lists beat numpy here: entries
  arrive one at a time from a pure-Python search loop, and the pruning
  query iterates a few dozen entries per probe — exactly the regime
  where native lists win (see the HPC optimisation guide on scalar
  numpy overhead).
* **Finalized phase** — one flat CSR triple (``indptr: int64[n+1]``,
  ``hubs: int64[E]``, ``dists: float64[E]``), built once by
  :meth:`finalize`.  :meth:`finalized_hubs` / :meth:`finalized_dists`
  are zero-copy slices into the flat arrays, :meth:`to_arrays` is a
  near-no-op, and :meth:`from_arrays` *adopts* arrays directly (no
  Python-list round-trip), which is what makes :meth:`PLLIndex.load
  <repro.core.index.PLLIndex.load>` O(1) instead of O(E).

A store built by :meth:`from_arrays` is *frozen*: it has no mutable
lists until the first mutation, which thaws it (one O(E) expansion).
Read accessors work directly off the CSR arrays while frozen.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError, NotIndexedError

__all__ = ["LabelStore"]


def _sort_dedup_flat(
    n: int,
    hub_lists: Sequence[Sequence[int]],
    dist_lists: Sequence[Sequence[float]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-vertex label lists into a sorted, deduplicated CSR triple."""
    sizes = np.fromiter((len(h) for h in hub_lists), dtype=np.int64, count=n)
    # The flat arrays go to the sort as temporaries, bound to no name
    # here, so it can free each one once it holds a sorted copy.
    return _sort_dedup_entries(
        n,
        np.repeat(np.arange(n, dtype=np.int64), sizes),
        _flatten(hub_lists, sizes, np.int64),
        _flatten(dist_lists, sizes, np.float64),
    )


def _flatten(
    lists: Sequence[Sequence[float]], sizes: np.ndarray, dtype: type
) -> np.ndarray:
    """The first ``sizes[v]`` entries of every ``lists[v]``, concatenated."""
    out = np.empty(int(sizes.sum()), dtype=dtype)
    pos = 0
    for v, k in enumerate(sizes.tolist()):
        if k:
            # The lock-free writer appends the distance before the hub,
            # so either list may momentarily run one entry long relative
            # to the committed length captured in ``sizes``; the first k
            # entries of both are the committed ones.
            out[pos:pos + k] = lists[v][:k]
            pos += k
    return out


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


class LabelStore:
    """Mutable per-vertex label lists, keyed by hub rank.

    Args:
        n: number of vertices.

    The store starts empty (the paper's ``L_0``).  Builders append with
    :meth:`add` or :meth:`add_delta`; the pruning query reads through
    :meth:`hubs_of` / :meth:`dists_of`; :meth:`finalize` freezes the
    store into the flat CSR form.
    """

    __slots__ = (
        "n",
        "_hubs",
        "_dists",
        "_finalized_indptr",
        "_finalized_hubs",
        "_finalized_dists",
    )

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphError("label store size must be non-negative")
        self.n = n
        self._hubs: Optional[List[List[int]]] = [[] for _ in range(n)]
        self._dists: Optional[List[List[float]]] = [[] for _ in range(n)]
        self._finalized_indptr: Optional[np.ndarray] = None
        self._finalized_hubs: Optional[np.ndarray] = None
        self._finalized_dists: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Frozen-store support
    # ------------------------------------------------------------------
    @property
    def _frozen(self) -> bool:
        """True for an adopted store with no mutable lists yet."""
        return self._hubs is None

    def _thaw(self) -> None:
        """Materialise the mutable lists from the CSR arrays (once)."""
        if self._hubs is not None:
            return
        assert self._finalized_indptr is not None
        assert self._finalized_hubs is not None
        assert self._finalized_dists is not None
        indptr = self._finalized_indptr
        hubs = self._finalized_hubs
        dists = self._finalized_dists
        self._hubs = [
            hubs[int(indptr[v]):int(indptr[v + 1])].tolist()
            for v in range(self.n)
        ]
        self._dists = [
            dists[int(indptr[v]):int(indptr[v + 1])].tolist()
            for v in range(self.n)
        ]

    def _invalidate(self) -> None:
        self._finalized_indptr = None
        self._finalized_hubs = None
        self._finalized_dists = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, v: int, hub_rank: int, dist: float) -> None:
        """Append one label entry ``(hub_rank, dist)`` to ``L(v)``.

        The distance is appended *before* the hub: concurrent lock-free
        readers (the pruning loop in other threads) capture
        ``len(hubs_of(v))`` first, so writing dists first guarantees any
        visible hub has its distance in place (CPython list appends are
        atomic under the GIL).
        """
        if self._hubs is None:
            self._thaw()
        self._dists[v].append(dist)
        self._hubs[v].append(hub_rank)
        self._invalidate()

    def add_delta(self, delta: Iterable[Tuple[int, int, float]]) -> int:
        """Bulk-append ``(v, hub_rank, dist)`` triples; returns the count.

        Duplicate (v, hub) pairs are tolerated (they arise from delayed
        synchronisation); queries take a min so duplicates are harmless,
        and :meth:`finalize` deduplicates keeping the smallest distance.
        """
        if self._hubs is None:
            self._thaw()
        hubs, dists = self._hubs, self._dists
        count = 0
        for v, h, d in delta:
            dists[v].append(d)
            hubs[v].append(h)
            count += 1
        if count:
            self._invalidate()
        return count

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
        if self._hubs is None:
            self._thaw()
        hubs_l, dists_l = self._hubs, self._dists
        # One bulk conversion to native ints/floats instead of one
        # int()/float() call per numpy scalar.
        vs = np.asarray(verts, dtype=np.int64).tolist()
        hs = np.asarray(hub_ranks, dtype=np.int64).tolist()
        ds = np.asarray(dists, dtype=np.float64).tolist()
        for v, h, d in zip(vs, hs, ds):
            dists_l[v].append(d)
            hubs_l[v].append(h)
        if vs:
            self._invalidate()
        return len(vs)

    # ------------------------------------------------------------------
    # Read access (pruning path)
    # ------------------------------------------------------------------
    def hubs_of(self, v: int) -> Sequence[int]:
        """Hub ranks of ``L(v)`` (live list — do not mutate).

        On a frozen (loaded) store this is a zero-copy CSR slice.
        """
        if self._hubs is not None:
            return self._hubs[v]
        return self.finalized_hubs(v)

    def dists_of(self, v: int) -> Sequence[float]:
        """Distances of ``L(v)``, parallel to :meth:`hubs_of`."""
        if self._dists is not None:
            return self._dists[v]
        return self.finalized_dists(v)

    def live_lists(self) -> Optional[Tuple[List[List[int]], List[List[float]]]]:
        """The mutable per-vertex ``(hubs, dists)`` lists themselves
        (do not mutate), or None for a frozen store.

        The compiled pruning kernel reads them in place, so the lists
        stay the store's only copy of the labels.
        """
        if self._hubs is None:
            return None
        return self._hubs, self._dists

    def entries_of(self, v: int) -> List[Tuple[int, float]]:
        """``(hub_rank, dist)`` pairs of ``L(v)`` (copied)."""
        if self._hubs is not None:
            return list(zip(self._hubs[v], self._dists[v]))
        return list(
            zip(
                self.finalized_hubs(v).tolist(),
                self.finalized_dists(v).tolist(),
            )
        )

    def label_size(self, v: int) -> int:
        """Number of entries in ``L(v)``."""
        if self._hubs is not None:
            return len(self._hubs[v])
        indptr = self._finalized_indptr
        return int(indptr[v + 1] - indptr[v])

    def label_sizes(self) -> List[int]:
        """Per-vertex label sizes."""
        if self._hubs is not None:
            return [len(h) for h in self._hubs]
        return np.diff(self._finalized_indptr).tolist()

    @property
    def total_entries(self) -> int:
        """Total entries across all vertices."""
        if self._hubs is not None:
            return sum(len(h) for h in self._hubs)
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
        exact Dijkstra from the hub.
        """
        if self._finalized_hubs is not None:
            return
        indptr, hubs, dists = _sort_dedup_flat(self.n, self._hubs, self._dists)
        self._finalized_indptr = indptr
        self._finalized_hubs = hubs
        self._finalized_dists = dists

    def finalized_hubs(self, v: int) -> np.ndarray:
        """Sorted, deduplicated hub ranks of ``L(v)``: a zero-copy slice
        of the flat CSR array (after finalize)."""
        if self._finalized_hubs is None:
            raise NotIndexedError("call LabelStore.finalize() first")
        indptr = self._finalized_indptr
        return self._finalized_hubs[int(indptr[v]):int(indptr[v + 1])]

    def finalized_dists(self, v: int) -> np.ndarray:
        """Distances parallel to :meth:`finalized_hubs` (zero-copy)."""
        if self._finalized_dists is None:
            raise NotIndexedError("call LabelStore.finalize() first")
        indptr = self._finalized_indptr
        return self._finalized_dists[int(indptr[v]):int(indptr[v + 1])]

    def finalized_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat CSR triple ``(indptr, hubs, dists)`` (finalizing
        first if needed).

        This is the sanctioned accessor for vectorised kernels (the
        batch query) and serialisation; the arrays are shared with the
        store — treat them as read-only.
        """
        self.finalize()
        return self._finalized_indptr, self._finalized_hubs, self._finalized_dists

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
        """Deep copy of the mutable label lists."""
        if self._hubs is None:
            self._thaw()
        other = LabelStore(self.n)
        other._hubs = [list(h) for h in self._hubs]
        other._dists = [list(d) for d in self._dists]
        return other

    def merge_from(self, other: "LabelStore") -> int:
        """Union *other*'s entries into this store; returns entries added.

        Exact-duplicate (v, hub) pairs already present are skipped so that
        repeated synchronisation rounds don't inflate the store.
        """
        if other.n != self.n:
            raise GraphError("cannot merge label stores of different sizes")
        if self._hubs is None:
            self._thaw()
        added = 0
        for v in range(self.n):
            have = set(self._hubs[v])
            entries = other.entries_of(v)
            for h, d in entries:
                if h not in have:
                    self._hubs[v].append(h)
                    self._dists[v].append(d)
                    have.add(h)
                    added += 1
        if added:
            self._invalidate()
        return added

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
        Python-list round-trip, no re-sort, no re-dedup); the returned
        store is frozen until the first mutation thaws it.  Memory-mapped
        arrays are adopted as-is, so a loaded index can serve queries
        without materialising the labels in RAM.

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
        # Keep np.memmap instances as-is (asarray would strip the
        # subclass); only coerce when the dtype is off.
        if not (isinstance(indptr, np.ndarray) and indptr.dtype == np.int64):
            indptr = np.asarray(indptr, dtype=np.int64)
        if not (isinstance(hubs, np.ndarray) and hubs.dtype == np.int64):
            hubs = np.asarray(hubs, dtype=np.int64)
        if not (isinstance(dists, np.ndarray) and dists.dtype == np.float64):
            dists = np.asarray(dists, dtype=np.float64)
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(hubs):
            raise GraphError("invalid label indptr")
        if len(hubs) != len(dists):
            raise GraphError("hubs and dists must have equal length")
        if validate:
            _validate_csr(indptr, hubs, dists)
        store = cls.__new__(cls)
        store.n = len(indptr) - 1
        store._hubs = None
        store._dists = None
        store._finalized_indptr = indptr
        store._finalized_hubs = hubs
        store._finalized_dists = dists
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

        Builds the CSR triple straight from the arrays, with no
        per-vertex Python lists; the returned store is frozen like one
        from :meth:`from_arrays`.
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
