"""Tests for the topology substrate: Topology class, NSFNET/GEANT2, generators, I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import RoutingScheme
from repro.topology import (
    Topology,
    assign_queue_sizes,
    geant2_topology,
    grid_topology,
    linear_topology,
    load_topology,
    nsfnet_topology,
    random_topology,
    ring_topology,
    save_topology,
    scale_free_topology,
    star_topology,
    topology_from_dict,
    topology_to_dict,
)
from repro.topology.graph import DEFAULT_QUEUE_SIZE, SMALL_QUEUE_SIZE, LinkSpec, NodeSpec


class TestTopologyBasics:
    def make_triangle(self):
        topology = Topology("triangle")
        for node in range(3):
            topology.add_node(node, queue_size=16)
        topology.add_link(0, 1, capacity=1e6, bidirectional=True)
        topology.add_link(1, 2, capacity=2e6, bidirectional=True)
        topology.add_link(0, 2, capacity=3e6, bidirectional=True)
        return topology

    def test_counts(self):
        topology = self.make_triangle()
        assert topology.num_nodes == 3
        assert topology.num_links == 6

    def test_link_index_round_trip(self):
        topology = self.make_triangle()
        for index in range(topology.num_links):
            spec = topology.link_by_index(index)
            assert topology.link_index(spec.source, spec.target) == index

    @pytest.mark.parametrize("topology", [geant2_topology(), ring_topology(6)],
                             ids=["geant2", "ring"])
    def test_link_index_follows_links_order(self, topology):
        """The index map filled by ``add_link`` agrees with ``links()`` order,
        for a named topology and one built with bidirectional links."""
        links = topology.links()
        assert len(links) == topology.num_links
        for index, spec in enumerate(links):
            assert topology.link_index(spec.source, spec.target) == index
        missing = next((u, v) for u in topology.nodes() for v in topology.nodes()
                       if u != v and not topology.has_link(u, v))
        with pytest.raises(KeyError, match="no link"):
            topology.link_index(*missing)

    def test_has_link_follows_link_direction(self):
        """A one-way link answers for its own direction only, and a route
        over it the other way is refused."""
        topology = Topology("one-way")
        for node in range(3):
            topology.add_node(node)
        topology.add_link(0, 1)
        topology.add_link(1, 2)
        assert topology.has_link(0, 1) and topology.has_link(np.int64(1), 2.0)
        assert not topology.has_link(1, 0)
        assert not topology.has_link(0, 2)
        assert not topology.has_link(0, 7)
        RoutingScheme(topology, {(0, 2): [0, 1, 2]})
        with pytest.raises(ValueError, match="missing link 2->1"):
            RoutingScheme(topology, {(2, 0): [2, 1, 0]})

    def test_queue_sizes(self):
        topology = self.make_triangle()
        assert topology.queue_sizes() == {0: 16, 1: 16, 2: 16}
        topology.set_queue_size(1, 1)
        assert topology.queue_sizes()[1] == 1

    def test_neighbors(self):
        topology = self.make_triangle()
        assert topology.successors(0) == [1, 2]
        assert topology.predecessors(2) == [0, 1]
        assert topology.degree(0) == 2

    def test_shortest_path(self):
        topology = self.make_triangle()
        assert topology.shortest_path(0, 2) == [0, 2]

    def test_path_links(self):
        topology = self.make_triangle()
        links = topology.path_links([0, 1, 2])
        assert links == [topology.link_index(0, 1), topology.link_index(1, 2)]

    def test_path_links_too_short(self):
        with pytest.raises(ValueError):
            self.make_triangle().path_links([0])

    def test_strongly_connected(self):
        topology = self.make_triangle()
        assert topology.is_strongly_connected()
        lonely = Topology()
        lonely.add_node(0)
        lonely.add_node(1)
        assert not lonely.is_strongly_connected()

    def test_missing_node_raises(self):
        topology = Topology()
        topology.add_node(0)
        with pytest.raises(KeyError):
            topology.add_link(0, 5)

    def test_duplicate_link_raises(self):
        topology = self.make_triangle()
        with pytest.raises(ValueError):
            topology.add_link(0, 1)

    def test_unknown_lookups_raise(self):
        topology = self.make_triangle()
        with pytest.raises(KeyError):
            topology.node_spec(99)
        with pytest.raises(KeyError):
            topology.link_spec(2, 2)
        with pytest.raises(KeyError):
            topology.link_index(1, 1)

    def test_copy_is_deep(self):
        topology = self.make_triangle()
        clone = topology.copy()
        clone.set_queue_size(0, 1)
        assert topology.queue_sizes()[0] == 16
        assert clone == clone and topology != clone

    def test_pairs(self):
        pairs = list(self.make_triangle().pairs())
        assert len(pairs) == 6
        assert (0, 0) not in pairs

    def test_weighted_shortest_path(self):
        topology = Topology()
        for node in range(3):
            topology.add_node(node)
        # Direct link is slow, two-hop path has much higher capacity.
        topology.add_link(0, 2, capacity=1e5)
        topology.add_link(0, 1, capacity=1e9)
        topology.add_link(1, 2, capacity=1e9)
        assert topology.shortest_path(0, 2) == [0, 2]
        assert topology.shortest_path(0, 2, weight="inverse_capacity") == [0, 1, 2]

    def test_invalid_weight(self):
        with pytest.raises(ValueError):
            self.make_triangle().shortest_path(0, 1, weight="bogus")

    def test_repr(self):
        assert "nodes=3" in repr(self.make_triangle())


class TestSpecs:
    def test_node_spec_validation(self):
        with pytest.raises(ValueError):
            NodeSpec(queue_size=0)

    def test_link_spec_validation(self):
        with pytest.raises(ValueError):
            LinkSpec(0, 0)
        with pytest.raises(ValueError):
            LinkSpec(0, 1, capacity=0)
        with pytest.raises(ValueError):
            LinkSpec(0, 1, propagation_delay=-1)


class TestReferenceTopologies:
    def test_nsfnet_shape(self):
        topology = nsfnet_topology()
        assert topology.num_nodes == 14
        assert topology.num_links == 42
        assert topology.is_strongly_connected()

    def test_geant2_shape(self):
        topology = geant2_topology()
        assert topology.num_nodes == 24
        assert topology.num_links == 74
        assert topology.is_strongly_connected()

    def test_explicit_queue_sizes(self):
        sizes = [1] * 14
        topology = nsfnet_topology(queue_sizes=sizes)
        assert all(size == 1 for size in topology.queue_sizes().values())

    def test_wrong_queue_size_count(self):
        with pytest.raises(ValueError):
            nsfnet_topology(queue_sizes=[1, 2, 3])

    def test_mixed_queue_sizes_fraction(self):
        topology = geant2_topology(small_queue_fraction=0.5,
                                   rng=np.random.default_rng(0))
        sizes = list(topology.queue_sizes().values())
        assert sizes.count(1) == 12
        assert sizes.count(DEFAULT_QUEUE_SIZE) == 12

    def test_deterministic_with_seed(self):
        t1 = geant2_topology(small_queue_fraction=0.3, rng=np.random.default_rng(7))
        t2 = geant2_topology(small_queue_fraction=0.3, rng=np.random.default_rng(7))
        assert t1.queue_sizes() == t2.queue_sizes()

    def test_labels_present(self):
        topology = nsfnet_topology()
        assert topology.node_spec(0).label == "Seattle"
        assert geant2_topology().node_spec(22).label == "United Kingdom"


class TestGenerators:
    def test_linear(self):
        topology = linear_topology(5)
        assert topology.num_nodes == 5
        assert topology.num_links == 8
        assert topology.is_strongly_connected()

    def test_ring(self):
        topology = ring_topology(6)
        assert topology.num_links == 12
        assert topology.is_strongly_connected()

    def test_star(self):
        topology = star_topology(4)
        assert topology.num_nodes == 5
        assert topology.degree(0) == 4

    def test_grid(self):
        topology = grid_topology(3, 3)
        assert topology.num_nodes == 9
        assert topology.is_strongly_connected()

    def test_random_connected(self):
        topology = random_topology(12, average_degree=3, rng=np.random.default_rng(1))
        assert topology.num_nodes == 12
        assert topology.is_strongly_connected()

    def test_scale_free(self):
        topology = scale_free_topology(15, rng=np.random.default_rng(2))
        assert topology.num_nodes == 15
        assert topology.is_strongly_connected()

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            linear_topology(1)
        with pytest.raises(ValueError):
            ring_topology(2)
        with pytest.raises(ValueError):
            star_topology(1)
        with pytest.raises(ValueError):
            grid_topology(1, 1)
        with pytest.raises(ValueError):
            random_topology(2)
        with pytest.raises(ValueError):
            scale_free_topology(2, attachment=2)

    def test_assign_queue_sizes(self):
        topology = ring_topology(10)
        mixed = assign_queue_sizes(topology, 0.3, rng=np.random.default_rng(0))
        sizes = list(mixed.queue_sizes().values())
        assert sizes.count(SMALL_QUEUE_SIZE) == 3
        # Original untouched.
        assert all(s == DEFAULT_QUEUE_SIZE for s in topology.queue_sizes().values())

    def test_assign_queue_sizes_bad_fraction(self):
        with pytest.raises(ValueError):
            assign_queue_sizes(ring_topology(4), 1.5)

    @given(st.integers(3, 12))
    @settings(max_examples=20, deadline=None)
    def test_ring_always_strongly_connected(self, n):
        assert ring_topology(n).is_strongly_connected()


class TestTopologyIO:
    def test_dict_round_trip(self):
        topology = nsfnet_topology(small_queue_fraction=0.4, rng=np.random.default_rng(3))
        rebuilt = topology_from_dict(topology_to_dict(topology))
        assert rebuilt == topology
        assert rebuilt.queue_sizes() == topology.queue_sizes()

    def test_file_round_trip(self, tmp_path):
        topology = geant2_topology()
        path = save_topology(topology, str(tmp_path / "geant2.json"))
        assert load_topology(path) == topology

    def test_labels_survive(self):
        rebuilt = topology_from_dict(topology_to_dict(nsfnet_topology()))
        assert rebuilt.node_spec(1).label == "Palo Alto"
