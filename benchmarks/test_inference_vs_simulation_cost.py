"""Experiment D (computational cost): GNN inference vs packet-level simulation.

RouteNet's selling point is "accuracy comparable to packet-level simulators
with a very low computational cost".  This benchmark times, on the same
GEANT2 scenario, (a) one forward pass of the trained Extended RouteNet and
(b) one packet-level simulation, and asserts the GNN is at least an order of
magnitude faster.  The speed-up, the paper's cost argument, lands in the
``gnn_vs_simulator_speedup`` row of ``.benchmarks/BENCH_throughput.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import DatasetConfig, FeatureNormalizer, generate_dataset, tensorize_sample
from repro.models import ExtendedRouteNet, RouteNetConfig
from repro.routing import shortest_path_routing
from repro.simulator import SimulationConfig, simulate_network
from repro.topology import geant2_topology
from repro.topology.generators import assign_queue_sizes
from repro.traffic import scaled_to_utilization, uniform_traffic

SIMULATION_DURATION = 5.0
GNN_REPETITIONS = 5

RESULTS: dict = {}


@pytest.fixture(scope="module", autouse=True)
def _write_bench_json(write_bench_rows):
    yield
    write_bench_rows(RESULTS)


@pytest.fixture(scope="module")
def inference_setup(bench_scale):
    samples = generate_dataset(geant2_topology(),
                               DatasetConfig(num_samples=4, seed=31, small_queue_fraction=0.5))
    normalizer = FeatureNormalizer().fit(samples)
    model = ExtendedRouteNet(RouteNetConfig(
        link_state_dim=bench_scale["state_dim"],
        path_state_dim=bench_scale["state_dim"],
        node_state_dim=bench_scale["state_dim"],
        message_passing_iterations=bench_scale["iterations"],
        seed=31,
    ))
    tensorized = tensorize_sample(samples[0], normalizer)
    return model, tensorized


@pytest.fixture(scope="module")
def simulation_scenario():
    rng = np.random.default_rng(31)
    topology = assign_queue_sizes(geant2_topology(capacity=2e6), 0.5, rng=rng)
    routing = shortest_path_routing(topology)
    traffic = uniform_traffic(24, 0.5, 1.5, rng=rng)
    traffic = scaled_to_utilization(traffic, routing, 0.7)
    return topology, routing, traffic


def test_gnn_inference_cost(benchmark, inference_setup):
    """Time one Extended RouteNet forward pass on a full GEANT2 sample."""
    model, tensorized = inference_setup
    result = benchmark(lambda: model.predict(tensorized))
    assert result.shape == (tensorized.num_paths,)


def test_simulation_cost_and_speedup(benchmark, inference_setup, simulation_scenario):
    """Time one packet-level simulation of the same scenario and report the speedup."""
    topology, routing, traffic = simulation_scenario
    config = SimulationConfig(duration=SIMULATION_DURATION, warmup=0.5, seed=31)

    result = benchmark.pedantic(
        lambda: simulate_network(topology, routing, traffic, config), rounds=1, iterations=1)
    assert result.total_packets_delivered > 0

    model, tensorized = inference_setup
    start = time.perf_counter()
    for _ in range(GNN_REPETITIONS):
        model.predict(tensorized)
    gnn_seconds = (time.perf_counter() - start) / GNN_REPETITIONS

    start = time.perf_counter()
    simulate_network(topology, routing, traffic, config)
    simulation_seconds = time.perf_counter() - start

    speedup = simulation_seconds / gnn_seconds
    RESULTS["gnn_vs_simulator_speedup"] = {
        "topology": "GEANT2", "num_paths": int(tensorized.num_paths),
        "model": "extended", "scan_mode": model.config.scan_mode,
        "simulated_seconds": SIMULATION_DURATION,
        "gnn_ms_per_scenario": gnn_seconds * 1e3,
        "simulator_s_per_scenario": simulation_seconds,
        "speedup": speedup}
    print(f"\nGNN inference        : {gnn_seconds * 1e3:8.1f} ms per scenario")
    print(f"packet-level sim     : {simulation_seconds:8.2f} s per scenario")
    print(f"speedup              : {speedup:8.1f}x")
    assert speedup > 10.0
