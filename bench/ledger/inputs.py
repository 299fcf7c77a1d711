"""Benchmark inputs: the pinned graphs, seeded request streams, and the
work directory that caches everything derived from them.

The graph is part of a workload's identity, so each workload always
indexes the same graph, generated once from the pinned dataset seed.
``--seed`` varies everything that is sampled: request pairs, arrival
schedules and the sources used to check builds against Dijkstra.  Across
dataset seeds 1-6 the stand-in graphs differ by about 5% in index size
and 10% in search work, more than the bounds the benchmark gates on.

Streams are generated here, not by ``repro.service.replay``: replay is
code under test, and it times requests from when they are sent rather
than from when they were due.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

import numpy as np

from ledger import use_repo

#: Seed of the pinned graphs, and of the request streams whose
#: fingerprints ``fingerprints.json`` pins.
DEFAULT_SEED = 42

#: Graph name -> (paper dataset stand-in, scale).
GRAPHS: Dict[str, Tuple[str, float]] = {
    "plaw": ("Gnutella", 8.0),
    "road": ("DE-USA", 3.0),
}

#: Sources per check of an index against Dijkstra (all targets each).
VERIFY_SOURCES = 16

#: Where the request mix comes from.  No captured query log ships with the
#: program, so the mix is not measured from real users.  ZIPF_ALPHA is the
#: default skew of ``repro.service.replay``, whose docstring cites the
#: social-network shaped traffic of hop-doubling labeling (arXiv
#: 1403.0779).  Batch pairs are uniform, as in the random-pair query
#: timings of ``benchmarks/bench_query_cost.py``.  BATCH_PAIRS, the two
#: connections and the Poisson arrivals are assumptions.
ZIPF_ALPHA = 1.1
BATCH_PAIRS = 16
POINT_STREAM_LEN = 1 << 18
BATCH_STREAM_LEN = 1 << 14

# Independent sub-streams of one seed.
_TAG_POINT, _TAG_BATCH, _TAG_SOURCES = 1, 2, 3

FINGERPRINTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fingerprints.json",
)


def sha256_arrays(*arrays: np.ndarray) -> str:
    """Fingerprint of arrays: dtype, shape and bytes of each, in order."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def graph_fingerprint(graph: Any) -> str:
    """sha256 of a graph's CSR arrays."""
    return sha256_arrays(graph.indptr, graph.indices, graph.weights)


@dataclass(frozen=True)
class Stream:
    """A cyclic request stream: one item per request, and unit-rate
    exponential gaps that a rate turns into a Poisson schedule."""

    pairs: np.ndarray
    gaps: np.ndarray

    def __len__(self) -> int:
        return len(self.gaps)

    def fingerprint(self) -> str:
        return sha256_arrays(self.pairs, self.gaps)

    def schedule(
        self, cursor: int, rate: float, seconds: float, end_rate: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stream positions and due times (s from step start) of the
        requests arriving in *seconds*, starting at *cursor*: a Poisson
        process whose rate is *rate*, or ramps linearly from *rate* to
        *end_rate* when that is given."""
        end_rate = end_rate or rate
        cap = int(max(rate, end_rate) * seconds * 1.5) + 64
        idx = (cursor + np.arange(cap)) % len(self)
        arrivals = np.cumsum(self.gaps[idx])
        # Invert the integrated rate  L(t) = rate t + slope t^2 / 2.
        slope = (end_rate - rate) / seconds
        if slope:
            due = (np.sqrt(rate * rate + 2 * slope * arrivals) - rate) / slope
        else:
            due = arrivals / rate
        keep = int(np.searchsorted(due, seconds, side="right"))
        return idx[:keep], due[:keep]


def point_stream(seed: int, n: int) -> Stream:
    """Zipf(alpha=1.1) point lookups: both endpoints drawn from one
    seeded popularity ranking of the vertices."""
    rng = np.random.default_rng([seed, _TAG_POINT])
    ranking = rng.permutation(n)
    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** ZIPF_ALPHA
    ranks = rng.choice(n, size=(POINT_STREAM_LEN, 2), p=weights / weights.sum())
    return Stream(
        pairs=ranking[ranks].astype(np.int64),
        gaps=rng.exponential(1.0, POINT_STREAM_LEN),
    )


def batch_stream(seed: int, n: int) -> Stream:
    """Batches of BATCH_PAIRS uniform pairs."""
    rng = np.random.default_rng([seed, _TAG_BATCH])
    return Stream(
        pairs=rng.integers(
            0, n, size=(BATCH_STREAM_LEN, BATCH_PAIRS, 2), dtype=np.int64
        ),
        gaps=rng.exponential(1.0, BATCH_STREAM_LEN),
    )


STREAMS: Dict[str, Callable[[int, int], Stream]] = {
    "point": point_stream,
    "batch": batch_stream,
}


def verify_sources(seed: int, n: int) -> np.ndarray:
    """The seeded sources whose distances to every target are checked."""
    rng = np.random.default_rng([seed, _TAG_SOURCES])
    return np.sort(rng.choice(n, size=min(VERIFY_SOURCES, n), replace=False))


def load_pinned() -> Dict[str, Any]:
    """The pinned default-seed fingerprints (``bench/fingerprints.json``)."""
    with open(FINGERPRINTS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _replace_atomically(tmp: str, final: str) -> None:
    if os.path.isdir(final):
        shutil.rmtree(final)
    os.replace(tmp, final)


class WorkDir:
    """Per-checkout cache of generated inputs under ``<repo>/.bench_work``.

    Everything derived from the program's code (bundles, reference
    builds, simulator runs) is keyed by a hash of ``src/repro``, so a
    source change can never be measured against a stale artefact.
    """

    def __init__(self, repo: str, scale: float = 1.0) -> None:
        self.repo = os.path.abspath(repo)
        self.src = use_repo(self.repo)
        self.scale = scale
        suffix = "" if scale == 1.0 else f"-x{scale:g}"
        self.root = os.path.join(self.repo, ".bench_work" + suffix)
        os.makedirs(self.root, exist_ok=True)
        self._source_hash: str = ""
        self._graphs: Dict[str, Tuple[Any, Dict[str, Any]]] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def source_hash(self) -> str:
        """sha256 over every ``src/repro`` Python file, path and body."""
        if not self._source_hash:
            h = hashlib.sha256()
            pkg = os.path.join(self.src, "repro")
            for dirpath, dirnames, filenames in os.walk(pkg):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        h.update(os.path.relpath(full, pkg).encode())
                        with open(full, "rb") as fh:
                            h.update(fh.read())
            self._source_hash = h.hexdigest()
        return self._source_hash

    # ------------------------------------------------------------------
    def graph_path(self, name: str) -> str:
        """The graph's ``.npz``, generated on first use."""
        self.graph(name)
        return self._graph_file(name)

    def _graph_file(self, name: str) -> str:
        # The generator is the program's code, so the file is keyed by
        # the source hash: a generator change makes a new graph, which
        # the identity guard then catches.
        return self.path(f"{name}-{self.source_hash[:16]}.npz")

    def graph(self, name: str) -> Tuple[Any, Dict[str, Any]]:
        """``(CSRGraph, info)`` with ``info = {sha256, n, m}``."""
        if name in self._graphs:
            return self._graphs[name]
        from repro.io.npz import load_graph_npz, save_graph_npz

        path = self._graph_file(name)
        if not os.path.exists(path):
            from repro.generators.paper import load_dataset

            dataset, scale = GRAPHS[name]
            graph = load_dataset(
                dataset, scale=scale * self.scale, seed=DEFAULT_SEED
            )
            tmp = f"{path}.tmp-{os.getpid()}.npz"
            save_graph_npz(graph, tmp)
            os.replace(tmp, path)
        graph = load_graph_npz(path)
        info = {
            "sha256": graph_fingerprint(graph),
            "n": int(graph.num_vertices),
            "m": int(graph.num_edges),
        }
        self._graphs[name] = (graph, info)
        return graph, info

    def truth_path(self, name: str, seed: int) -> str:
        """Where :meth:`truth` keeps its distances (keyed by graph)."""
        sha = self.graph(name)[1]["sha256"]
        return self.path(f"truth-{name}-{sha[:16]}-s{seed}.npz")

    def truth(self, name: str, seed: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, dist)``: Dijkstra distances from the seeded
        sources to every vertex, ``dist[i, t]``."""
        graph, info = self.graph(name)
        path = self.truth_path(name, seed)
        if not os.path.exists(path):
            from repro.baselines.dijkstra import dijkstra_sssp

            sources = verify_sources(seed, info["n"])
            dist = np.array(
                [dijkstra_sssp(graph, int(s)) for s in sources],
                dtype=np.float64,
            )
            tmp = f"{path}.tmp-{os.getpid()}.npz"
            np.savez(tmp, sources=sources, dist=dist)
            os.replace(tmp, path)
        with np.load(path) as data:
            return data["sources"], data["dist"]

    def cached_json(self, key: str, make: Callable[[], Dict[str, Any]]):
        """A JSON document derived from the code, computed once per
        source hash."""
        path = self.path(f"{key}-{self.source_hash[:16]}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        doc = make()
        tmp = f"{path}.tmp-{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
        return doc

    def bundle(self, name: str) -> Tuple[str, int]:
        """``(path, mismatches)`` of a serially built ``dir`` index
        bundle of the graph, checked against Dijkstra when prepared."""
        path = self.path(f"bundle-{name}-{self.source_hash[:16]}")
        marker = os.path.join(path, "verified.json")
        if not os.path.exists(marker):
            from repro.core.index import PLLIndex

            graph, _info = self.graph(name)
            tmp = f"{path}.tmp-{os.getpid()}"
            PLLIndex.build(graph).save(tmp, format="dir")
            sources, dist = self.truth(name, DEFAULT_SEED)
            got = distances_from(PLLIndex.load(tmp, mmap=True), sources)
            bad = int(count_mismatches(got, dist))
            with open(os.path.join(tmp, "verified.json"), "w") as fh:
                json.dump({"mismatches": bad}, fh)
            _replace_atomically(tmp, path)
        with open(marker, "r", encoding="utf-8") as fh:
            return path, int(json.load(fh)["mismatches"])


def distances_from(index: Any, sources: np.ndarray) -> np.ndarray:
    """``index.distance_batch`` for every (source, target) pair, one
    source per batch so the check adds little to the peak RSS measured
    around it."""
    n = index.num_vertices
    pairs = np.empty((n, 2), dtype=np.int64)
    pairs[:, 1] = np.arange(n, dtype=np.int64)
    out = np.empty((len(sources), n), dtype=np.float64)
    for row, s in enumerate(sources):
        pairs[:, 0] = s
        out[row] = index.distance_batch(pairs)
    return out


def count_mismatches(got: np.ndarray, want: np.ndarray) -> int:
    """Entries where two distance arrays disagree (``inf`` == ``inf``)."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return int(max(got.size, want.size))
    same = (got == want) | np.isclose(got, want, rtol=1e-12, atol=1e-9)
    return int(np.count_nonzero(~same))
