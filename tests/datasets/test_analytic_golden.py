"""Golden bit-identity checks for the analytic (M/M/1/K) labeller.

Five ``generate_dataset`` runs — GEANT2 and NSFNET on two seeds each, plus
one run with randomised k-shortest-path routing — are each pinned to a
SHA-256 over every sample's routing paths and its delay, jitter and loss
vectors.  A rewrite of routing, of the queueing fixed point or of the
jitter floor that moves any label by one ulp, or picks a different path,
changes a digest.  The expected values were recorded before the labeller
was rewritten at array level, so the array version produces exactly the
labels of the per-pair loops it replaced.
"""

import pytest

from repro.datasets.factory import resolve_topology
from repro.datasets.generator import DatasetConfig, generate_dataset
from tests.support import labels_digest

#: name -> (topology, DatasetConfig overrides, digest)
GOLDEN = {
    "geant2-seed0": ("geant2", {"seed": 0},
                     "1b12f63b608716cdd4dc4ba370edefc6921a79551a2f6347268f0709574a1081"),
    "geant2-seed1": ("geant2", {"seed": 1},
                     "6953d2ebe8099d00d7677d3bfe4a98cb267552eea3ffa1e80c0a5667aaa8002d"),
    "nsfnet-seed0": ("nsfnet", {"seed": 0},
                     "9766983db0f3aad0e84c12993ab976281b0e8de641cf50dbf5941d58973c4ad8"),
    "nsfnet-seed1": ("nsfnet", {"seed": 1},
                     "d3ba0cd2e7d244bcd98bd3d9df3716fef8b2a59b3b11d21dc55058cc297548ca"),
    "nsfnet-k3-seed2": ("nsfnet", {"seed": 2, "routing_variation": 3},
                        "f4cacb65a9f91266c53a8c6ffd12447b96f2c2dc693c1719847fa3162ddd2dd3"),
}


def run_config(name):
    topology_name, overrides, _ = GOLDEN[name]
    config = DatasetConfig(num_samples=8, **overrides)
    return labels_digest(generate_dataset(resolve_topology(topology_name, 0), config))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analytic_labels_match_golden(name):
    assert run_config(name) == GOLDEN[name][2]
