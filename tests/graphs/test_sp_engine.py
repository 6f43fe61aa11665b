"""Differential tests of the shortest-path engine.

The engine (CSR adjacency, point-to-point early exit, path-only
recovery, array fields, per-network field cache) must reproduce the
plain dict/heapq Dijkstra in :mod:`tests.graphs.sp_reference` bit for
bit: the same path node for node, the same float distances.  Distances
are also checked against networkx and ``scipy.sparse.csgraph``.
"""

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro import obs
from repro.errors import NoPathError
from repro.graphs import (
    INFINITY,
    Point,
    RoadNetwork,
    dijkstra,
    distances_from,
    distances_to_target,
    manhattan_grid,
    shortest_path,
    shortest_path_length,
)

from .sp_reference import (
    reference_dijkstra,
    reference_distances_to,
    reference_shortest_path,
)


def random_network(
    seed: int, n: int, extra: int, one_way: float, integer: bool
) -> RoadNetwork:
    """Random directed network; ``integer`` lengths create many ties."""
    rng = random.Random(seed)
    net = RoadNetwork()
    for i in range(n):
        net.add_intersection(i, Point(rng.uniform(0, 1000), rng.uniform(0, 1000)))

    def length():
        return float(rng.randint(1, 4)) if integer else rng.uniform(1, 100)

    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        net.add_road(a, b, length())
        if rng.random() >= one_way:
            net.add_road(b, a, length())
    return net


def one_way_grid(seed: int, side: int) -> RoadNetwork:
    """A grid (equal-length ties everywhere) with random streets made one-way."""
    rng = random.Random(seed)
    net = manhattan_grid(side, side, 10.0)
    for tail, head, _ in list(net.edges()):
        if net.has_road(tail, head) and net.has_road(head, tail) and rng.random() < 0.2:
            net.remove_road(tail, head)
    return net


def to_scipy(net: RoadNetwork) -> csr_matrix:
    csr = net.csr()
    rows, cols, data = [], [], []
    for tail, row in enumerate(csr.succ):
        for head, length in row:
            rows.append(tail)
            cols.append(head)
            data.append(length)
    n = len(csr.nodes)
    return csr_matrix((data, (rows, cols)), shape=(n, n))


networks = st.one_of(
    st.builds(
        random_network,
        seed=st.integers(0, 10_000),
        n=st.integers(2, 16),
        extra=st.integers(0, 40),
        one_way=st.sampled_from([0.0, 0.3, 1.0]),
        integer=st.booleans(),
    ),
    st.builds(one_way_grid, seed=st.integers(0, 10_000), side=st.integers(2, 6)),
)


def same_floats(ours, theirs):
    """Bit-for-bit equal distance maps (same keys, identical floats)."""
    assert set(ours) == set(theirs)
    for node, value in theirs.items():
        assert ours[node].hex() == value.hex(), node


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(net=networks, data=st.data())
    def test_paths_and_lengths_bit_identical(self, net, data):
        nodes = list(net.nodes())
        source = data.draw(st.sampled_from(nodes))
        target = data.draw(st.sampled_from(nodes))
        try:
            expected = reference_shortest_path(net, source, target)
        except NoPathError:
            with pytest.raises(NoPathError):
                shortest_path(net, source, target)
            with pytest.raises(NoPathError):
                shortest_path_length(net, source, target)
            return
        assert shortest_path(net, source, target) == expected
        reference, _ = reference_dijkstra(net, source)
        length = shortest_path_length(net, source, target)
        assert length.hex() == reference[target].hex()

    @settings(max_examples=60, deadline=None)
    @given(net=networks, data=st.data())
    def test_fields_bit_identical(self, net, data):
        anchor = data.draw(st.sampled_from(list(net.nodes())))
        forward, _ = reference_dijkstra(net, anchor)
        same_floats(distances_from(net, anchor).distances, forward)
        same_floats(
            distances_to_target(net, anchor).distances,
            reference_distances_to(net, anchor),
        )
        field = distances_to_target(net, anchor)
        for node in net.nodes():
            assert (node in field) == (field[node] != INFINITY)

    @settings(max_examples=60, deadline=None)
    @given(net=networks, data=st.data(), cutoff=st.sampled_from([None, 5.0, 40.0]))
    def test_dijkstra_with_parents_and_cutoff(self, net, data, cutoff):
        source = data.draw(st.sampled_from(list(net.nodes())))
        ours, parents = dijkstra(net, source, with_parents=True, cutoff=cutoff)
        theirs, their_parents = reference_dijkstra(
            net, source, with_parents=True, cutoff=cutoff
        )
        same_floats(ours, theirs)
        assert parents == their_parents

    @pytest.mark.parametrize("seed", range(3))
    def test_every_grid_pair_matches(self, seed):
        net = one_way_grid(seed, 5)
        for source in net.nodes():
            for target in net.nodes():
                try:
                    expected = reference_shortest_path(net, source, target)
                except NoPathError:
                    continue
                assert shortest_path(net, source, target) == expected

    def test_sub_tolerance_edges_fall_back_to_a_full_search(self):
        """A tight chain that climbs above dist(target) is still exact.

        Edges shorter than the 1e-9 relative tolerance let a tight
        predecessor sit *farther* from the source than the target, beyond
        the early-exit horizon; recovery must then settle everything.
        """
        net = RoadNetwork()
        for node in "swut":
            net.add_intersection(node, Point(0, 0))
        net.add_road("u", "t", 1e-7)
        net.add_road("s", "t", 1000.0)
        net.add_road("w", "u", 1e-8)
        net.add_road("s", "u", 1000.0000005)
        net.add_road("s", "w", 1000.0000012)
        expected = reference_shortest_path(net, "s", "t")
        assert expected == ["s", "w", "u", "t"]
        assert shortest_path(net, "s", "t") == expected


class TestAgainstLibraries:
    @settings(max_examples=40, deadline=None)
    @given(net=networks, data=st.data())
    def test_networkx_distances(self, net, data):
        graph = nx.DiGraph()
        graph.add_nodes_from(net.nodes())
        for tail, head, length in net.edges():
            graph.add_edge(tail, head, weight=length)
        anchor = data.draw(st.sampled_from(list(net.nodes())))
        theirs = nx.single_source_dijkstra_path_length(graph, anchor)
        ours = distances_from(net, anchor)
        assert set(ours.reachable()) == set(theirs)
        for node, value in theirs.items():
            assert ours[node] == pytest.approx(value, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(net=networks)
    def test_scipy_distance_matrix(self, net):
        matrix = scipy_dijkstra(to_scipy(net), directed=True)
        nodes = net.csr().nodes
        for i, node in enumerate(nodes):
            forward = distances_from(net, node).values
            backward = distances_to_target(net, node).values
            np.testing.assert_allclose(forward, matrix[i], rtol=1e-12)
            np.testing.assert_allclose(backward, matrix[:, i], rtol=1e-12)


class TestWorkCounters:
    """Deterministic work pinned exactly on a fixed grid."""

    def test_settles_and_cache_counts_on_a_grid(self):
        net = manhattan_grid(6, 6, 100.0)
        with obs.ObsContext() as ctx:
            path = shortest_path(net, (0, 0), (5, 5))
        assert len(path) == 11
        # Early exit: the far corner is the last node settled.
        assert ctx.counters["graphs.sp.settles"] == 36

        with obs.ObsContext() as ctx:
            shortest_path(net, (0, 0), (2, 2))
        # Nodes with dist <= 400 ft from the corner: 1+2+3+4+5 diagonals.
        assert ctx.counters["graphs.sp.settles"] == 15

        with obs.ObsContext() as ctx:
            for target in [(0, 0), (3, 3), (0, 0), (5, 5), (3, 3)]:
                distances_to_target(net, target)
            distances_from(net, (0, 0))
        assert ctx.counters["graphs.sp.field_cache.misses"] == 4
        assert ctx.counters["graphs.sp.field_cache.hits"] == 2
        assert ctx.counters["graphs.sp.settles"] == 4 * 36

    def test_cache_is_shared_across_calls_and_dropped_on_mutation(self):
        net = manhattan_grid(3, 3, 10.0)
        first = distances_to_target(net, (2, 2))
        assert distances_to_target(net, (2, 2)) is first
        assert first[(0, 0)] == 40.0
        net.add_road((0, 0), (2, 2), 1.0)
        second = distances_to_target(net, (2, 2))
        assert second is not first
        assert second[(0, 0)] == 1.0


    def test_a_used_network_still_pickles(self):
        import pickle

        net = manhattan_grid(3, 3, 10.0)
        distances_to_target(net, (2, 2))  # cache holds a lock
        clone = pickle.loads(pickle.dumps(net))
        assert distances_to_target(clone, (2, 2))[(0, 0)] == 40.0


    def test_eviction_keeps_the_budget_under_thread_contention(self, monkeypatch):
        """Eight threads share one network's cache with a tiny budget.

        Every field read must stay exact, and the cache's byte count must
        equal the bytes it holds (a lost update would break either).
        """
        import sys
        import threading

        from repro.graphs import shortest_paths as module

        net = manhattan_grid(5, 5, 10.0)
        field_bytes = 25 * 8
        monkeypatch.setattr(module, "_FIELD_CACHE_BYTES", 6 * field_bytes)
        nodes = list(net.nodes())
        expected = {node: reference_distances_to(net, node) for node in nodes}
        errors = []

        def hammer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(500):
                    node = rng.choice(nodes)
                    same_floats(distances_to_target(net, node).distances, expected[node])
            except Exception as error:  # a thread's failure, surfaced below
                errors.append(error)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        cache = net.csr().field_cache
        held = sum(field.values.nbytes for field in cache._fields.values())
        assert cache._nbytes == held <= 6 * field_bytes


class SpCacheMachine(RuleBasedStateMachine):
    """Every mutation kind must drop the CSR snapshot and cached fields."""

    def __init__(self):
        super().__init__()
        self.network = RoadNetwork()
        self.next_node = 0

    def _warm(self):
        csr = self.network.csr()
        for node in list(self.network.nodes())[:3]:
            distances_from(self.network, node)
            distances_to_target(self.network, node)
        return csr, self.network.version

    def _check_dropped(self, before):
        csr, version = before
        assert self.network.version > version
        assert self.network.csr() is not csr

    @rule(x=st.floats(-100, 100), y=st.floats(-100, 100))
    def add_intersection(self, x, y):
        before = self._warm()
        self.network.add_intersection(self.next_node, Point(x, y))
        self.next_node += 1
        self._check_dropped(before)

    @precondition(lambda self: self.network.node_count >= 2)
    @rule(data=st.data(), length=st.integers(1, 5))
    def add_or_overwrite_road(self, data, length):
        nodes = sorted(self.network.nodes())
        tail = data.draw(st.sampled_from(nodes))
        head = data.draw(st.sampled_from(nodes))
        if tail == head:
            return
        before = self._warm()
        self.network.add_road(tail, head, float(length))
        self._check_dropped(before)

    @precondition(lambda self: self.network.edge_count > 0)
    @rule(data=st.data())
    def remove_road(self, data):
        tail, head, _ = data.draw(st.sampled_from(sorted(self.network.edges())))
        before = self._warm()
        self.network.remove_road(tail, head)
        self._check_dropped(before)

    @precondition(lambda self: self.network.node_count > 0)
    @rule(data=st.data())
    def remove_intersection(self, data):
        node = data.draw(st.sampled_from(sorted(self.network.nodes())))
        before = self._warm()
        self.network.remove_intersection(node)
        self._check_dropped(before)

    @invariant()
    def fields_match_reference(self):
        for node in self.network.nodes():
            forward, _ = reference_dijkstra(self.network, node)
            same_floats(distances_from(self.network, node).distances, forward)
            same_floats(
                distances_to_target(self.network, node).distances,
                reference_distances_to(self.network, node),
            )


TestSpCacheMachine = SpCacheMachine.TestCase
TestSpCacheMachine.settings = settings(
    max_examples=30, stateful_step_count=15, deadline=None
)
