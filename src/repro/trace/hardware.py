"""Server hardware and cluster configurations.

The paper's traces cover thousands of servers from four hardware generations
(Intel and AMD) across ten clusters in seven regions.  Different clusters
have different core/memory/network ratios, which is why the bottleneck
resource differs per cluster (Figure 5: C1 is CPU-bound, C4 memory-bound,
C2 mixed).  This module provides the server-generation catalogue and the
ten-cluster layout used by the synthetic trace generator and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.resources import ResourceVector


@dataclass(frozen=True)
class ServerConfig:
    """Capacity of one physical server."""

    generation: str
    cores: int
    memory_gb: int
    network_gbps: float
    ssd_gb: int

    def capacity_vector(self) -> ResourceVector:
        return ResourceVector.of(
            cpu=float(self.cores),
            memory=float(self.memory_gb),
            network=float(self.network_gbps),
            ssd=float(self.ssd_gb),
        )

    @property
    def gb_per_core(self) -> float:
        return self.memory_gb / self.cores


#: Four hardware generations, roughly mirroring the mix of general-purpose
#: Azure fleets: newer generations have more cores and memory.  The ratios
#: differ so that stranding and bottleneck behaviour vary across clusters.
HARDWARE_GENERATIONS: Dict[str, ServerConfig] = {
    # Balanced general-purpose (about 4 GB/core, the typical VM ratio).
    "gen4-intel": ServerConfig("gen4-intel", cores=40, memory_gb=160, network_gbps=25.0, ssd_gb=3000),
    # Memory-rich generation: CPU becomes the bottleneck, memory strands.
    "gen5-intel": ServerConfig("gen5-intel", cores=48, memory_gb=384, network_gbps=40.0, ssd_gb=4000),
    # Core-rich AMD generation: memory becomes the bottleneck.
    "gen6-amd": ServerConfig("gen6-amd", cores=96, memory_gb=256, network_gbps=40.0, ssd_gb=6000),
    # Large balanced generation with constrained network.
    "gen7-amd": ServerConfig("gen7-amd", cores=80, memory_gb=320, network_gbps=20.0, ssd_gb=8000),
}


@dataclass(frozen=True)
class ClusterConfig:
    """A cluster: a homogeneous-ish pool of servers in one region."""

    cluster_id: str
    region: str
    generation_counts: Tuple[Tuple[str, int], ...]
    #: Relative share of trace VM arrivals targeted at this cluster.
    arrival_weight: float = 1.0

    def server_configs(self) -> List[ServerConfig]:
        """Expanded list with one entry per physical server."""
        servers: List[ServerConfig] = []
        for generation, count in self.generation_counts:
            config = HARDWARE_GENERATIONS[generation]
            servers.extend([config] * count)
        return servers

    @property
    def server_count(self) -> int:
        return sum(count for _gen, count in self.generation_counts)

    def total_capacity(self) -> ResourceVector:
        total = ResourceVector.zeros()
        for server in self.server_configs():
            total = total + server.capacity_vector()
        return total


def default_clusters(servers_per_cluster: int = 20) -> List[ClusterConfig]:
    """The ten clusters (C1-C10) used throughout the characterization.

    The hardware mix is chosen so that the Figure 5 structure emerges:
    C1 is almost exclusively CPU-bottlenecked (memory-rich servers), C4 is
    memory-bottlenecked (core-rich servers), C2 is split between CPU, memory
    and network, and the rest fall in between.
    """
    n = servers_per_cluster

    def mix(*pairs: Tuple[str, float]) -> Tuple[Tuple[str, int], ...]:
        counts = []
        assigned = 0
        for generation, share in pairs[:-1]:
            count = max(1, int(round(share * n)))
            counts.append((generation, count))
            assigned += count
        last_gen, _ = pairs[-1]
        counts.append((last_gen, max(1, n - assigned)))
        return tuple(counts)

    regions = ["us-east", "us-west", "eu-west", "eu-north", "asia-east",
               "asia-south", "us-central"]
    clusters = [
        # C1: memory-rich -> CPU is exhausted first (CPU bottleneck).
        ClusterConfig("C1", regions[0], mix(("gen5-intel", 1.0)), arrival_weight=1.3),
        # C2: heterogeneous mix -> bottleneck split across resources.
        ClusterConfig("C2", regions[1], mix(("gen4-intel", 0.4), ("gen6-amd", 0.3),
                                            ("gen7-amd", 0.3)), arrival_weight=1.1),
        # C3: mostly balanced.
        ClusterConfig("C3", regions[2], mix(("gen4-intel", 0.7), ("gen5-intel", 0.3)),
                      arrival_weight=1.0),
        # C4: core-rich AMD -> memory bottleneck.
        ClusterConfig("C4", regions[3], mix(("gen6-amd", 1.0)), arrival_weight=1.2),
        # C5: balanced with some memory-rich.
        ClusterConfig("C5", regions[4], mix(("gen4-intel", 0.5), ("gen5-intel", 0.5)),
                      arrival_weight=0.9),
        # C6: network-constrained generation.
        ClusterConfig("C6", regions[5], mix(("gen7-amd", 0.8), ("gen4-intel", 0.2)),
                      arrival_weight=0.8),
        # C7: core-rich with some balance.
        ClusterConfig("C7", regions[6], mix(("gen6-amd", 0.6), ("gen4-intel", 0.4)),
                      arrival_weight=1.0),
        # C8: balanced.
        ClusterConfig("C8", regions[0], mix(("gen4-intel", 1.0)), arrival_weight=1.0),
        # C9: memory-rich and network-constrained.
        ClusterConfig("C9", regions[1], mix(("gen5-intel", 0.5), ("gen7-amd", 0.5)),
                      arrival_weight=0.9),
        # C10: broad mix.
        ClusterConfig("C10", regions[2], mix(("gen4-intel", 0.3), ("gen5-intel", 0.2),
                                             ("gen6-amd", 0.3), ("gen7-amd", 0.2)),
                      arrival_weight=1.1),
    ]
    return clusters


@dataclass
class Fleet:
    """All clusters participating in a trace or simulation."""

    clusters: List[ClusterConfig] = field(default_factory=default_clusters)

    def cluster_ids(self) -> List[str]:
        return [c.cluster_id for c in self.clusters]

    def get(self, cluster_id: str) -> ClusterConfig:
        for cluster in self.clusters:
            if cluster.cluster_id == cluster_id:
                return cluster
        raise KeyError(f"unknown cluster {cluster_id!r}")

    def arrival_weights(self) -> List[float]:
        return [c.arrival_weight for c in self.clusters]
