"""Shared fixtures: small hand-built graphs and seeded random graphs."""

from __future__ import annotations

import pytest

from repro.generators.random_graphs import gnm_random_graph
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph


@pytest.fixture(scope="session", autouse=True)
def _race_sanitizer_from_env():
    """Install the vector-clock race sanitizer when PARAPLL_SANITIZE is
    set to any truthy value (``1`` and ``vc`` alike).

    CI's lint-and-sanitize job runs the threaded tests with the flag
    on; any race in the commit path, the dynamic queue, or the thread
    communicator fails the session at teardown with full stacks.
    """
    from repro.check.vectorclock import enable_from_env

    sanitizer = enable_from_env()
    yield
    if sanitizer is not None:
        sanitizer.uninstall()
        assert sanitizer.ok, "\n" + sanitizer.render()


def build_graph(edges, n=None, name="test") -> CSRGraph:
    """Helper: build a CSR graph from (u, v, w) triples."""
    b = GraphBuilder(num_vertices=n)
    b.add_edges(edges)
    return b.build(name=name)


@pytest.fixture
def path_graph() -> CSRGraph:
    """0 -1- 1 -2- 2 -3- 3: a weighted path."""
    return build_graph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)], name="path4")


@pytest.fixture
def triangle() -> CSRGraph:
    """Triangle where the direct edge 0-2 is longer than the detour."""
    return build_graph(
        [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], name="triangle"
    )


@pytest.fixture
def star_graph() -> CSRGraph:
    """Star: hub 0 with 5 leaves at varying weights."""
    return build_graph(
        [(0, i, float(i)) for i in range(1, 6)], name="star6"
    )


@pytest.fixture
def two_components() -> CSRGraph:
    """Two disjoint edges: {0,1} and {2,3}."""
    return build_graph(
        [(0, 1, 1.0), (2, 3, 2.0)], n=5, name="twocomp"
    )  # vertex 4 isolated


@pytest.fixture
def random_graph() -> CSRGraph:
    """A small connected seeded random graph."""
    return gnm_random_graph(40, 100, seed=7)


@pytest.fixture
def medium_graph() -> CSRGraph:
    """A slightly larger seeded random graph for integration tests."""
    return gnm_random_graph(120, 400, seed=11)
