"""Resource model shared by the whole library.

This module defines the resource types Coach manages, their fungibility
classification, and the sharing mechanism the platform uses for each
(Table 1 of the paper), together with ``ResourceVector`` -- the small
fixed-size vector of per-resource quantities used throughout the
scheduler, the simulator, and the characterization code.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, Mapping, Tuple


class Resource(str, Enum):
    """Resource types tracked for every VM and server.

    The paper oversubscribes *all* resources; the four below are the ones
    its telemetry records at 5-minute granularity (Section 2, Methodology).
    """

    CPU = "cpu"
    MEMORY = "memory"
    NETWORK = "network"
    SSD = "ssd"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Resources in canonical order.  Many arrays in the library are indexed in
#: this order, so it must stay stable.
ALL_RESOURCES: Tuple[Resource, ...] = (
    Resource.CPU,
    Resource.MEMORY,
    Resource.NETWORK,
    Resource.SSD,
)

#: Units used when reporting each resource.
RESOURCE_UNITS: Dict[Resource, str] = {
    Resource.CPU: "cores",
    Resource.MEMORY: "GB",
    Resource.NETWORK: "Gbps",
    Resource.SSD: "GB",
}


class Fungibility(str, Enum):
    """Whether a resource can be quickly reassigned between VMs."""

    FUNGIBLE = "fungible"
    NON_FUNGIBLE = "non-fungible"


@dataclass(frozen=True)
class SharingMechanism:
    """One row of Table 1: how a resource is shared across CoachVMs."""

    name: str
    fungibility: Fungibility
    mechanism: str

    @property
    def is_fungible(self) -> bool:
        return self.fungibility is Fungibility.FUNGIBLE


#: Table 1 of the paper: common fungible and non-fungible resources and the
#: mechanism used to share them across VMs.  Keys are descriptive names; the
#: four entries matching :class:`Resource` are the ones the simulator models
#: explicitly (memory *space* is the non-fungible one Coach focuses on).
SHARING_MECHANISMS: Dict[str, SharingMechanism] = {
    "cpu": SharingMechanism("CPU", Fungibility.FUNGIBLE, "CPU groups"),
    "memory_space": SharingMechanism(
        "Memory space", Fungibility.NON_FUNGIBLE, "PA/VA portions, VA-backing"
    ),
    "memory_bandwidth": SharingMechanism(
        "Memory bandwidth", Fungibility.FUNGIBLE, "Shares, reservations, caps"
    ),
    "network_bandwidth": SharingMechanism(
        "Network bandwidth", Fungibility.FUNGIBLE, "Shares, reservations, caps"
    ),
    "accelerated_network": SharingMechanism(
        "Accelerated network", Fungibility.NON_FUNGIBLE, "SR-IOV"
    ),
    "storage_bandwidth": SharingMechanism(
        "Storage bandwidth", Fungibility.FUNGIBLE, "Shares, reservations, caps"
    ),
    "local_storage_space": SharingMechanism(
        "Local storage space", Fungibility.NON_FUNGIBLE, "Disk partitions, DDA, SR-IOV"
    ),
    "remote_storage_space": SharingMechanism(
        "Remote storage space", Fungibility.FUNGIBLE, "Cache size and network bandwidth"
    ),
    "gpu": SharingMechanism("GPU", Fungibility.NON_FUNGIBLE, "DDA, SR-IOV"),
    "power": SharingMechanism("Power", Fungibility.FUNGIBLE, "Frequency and power caps"),
}

#: Fungibility of the four resources the simulator tracks.  Memory space is
#: the non-fungible one; CPU, network bandwidth, and SSD bandwidth/space are
#: treated as fungible for scheduling purposes (the paper focuses its
#: non-fungible machinery on memory).
RESOURCE_FUNGIBILITY: Dict[Resource, Fungibility] = {
    Resource.CPU: Fungibility.FUNGIBLE,
    Resource.MEMORY: Fungibility.NON_FUNGIBLE,
    Resource.NETWORK: Fungibility.FUNGIBLE,
    Resource.SSD: Fungibility.FUNGIBLE,
}


def is_fungible(resource: Resource) -> bool:
    """Return ``True`` when *resource* can be reassigned quickly between VMs."""
    return RESOURCE_FUNGIBILITY[resource] is Fungibility.FUNGIBLE


class ResourceVector:
    """A fixed-size mapping from :class:`Resource` to a float quantity.

    Supports element-wise arithmetic and comparisons used by the bin-packing
    scheduler (a VM "fits" in a server when its demand vector is element-wise
    less than or equal to the free-capacity vector).
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[Resource, float] | None = None, **kwargs: float):
        merged: Dict[Resource, float] = {r: 0.0 for r in ALL_RESOURCES}
        if values:
            for key, val in values.items():
                merged[Resource(key)] = float(val)
        for key, val in kwargs.items():
            merged[Resource(key)] = float(val)
        self._values = merged

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zeros(cls) -> "ResourceVector":
        return cls()

    @classmethod
    def uniform(cls, value: float) -> "ResourceVector":
        return cls({r: value for r in ALL_RESOURCES})

    @classmethod
    def of(cls, cpu: float = 0.0, memory: float = 0.0, network: float = 0.0,
           ssd: float = 0.0) -> "ResourceVector":
        return cls({Resource.CPU: cpu, Resource.MEMORY: memory,
                    Resource.NETWORK: network, Resource.SSD: ssd})

    def copy(self) -> "ResourceVector":
        return ResourceVector(self._values)

    # ------------------------------------------------------------------ #
    # Mapping-like access
    # ------------------------------------------------------------------ #
    def __getitem__(self, resource: Resource) -> float:
        return self._values[Resource(resource)]

    def __setitem__(self, resource: Resource, value: float) -> None:
        self._values[Resource(resource)] = float(value)

    def get(self, resource: Resource, default: float = 0.0) -> float:
        return self._values.get(Resource(resource), default)

    def items(self) -> Iterator[Tuple[Resource, float]]:
        return iter(self._values.items())

    def keys(self) -> Iterable[Resource]:
        return self._values.keys()

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector({r: self._values[r] + other[r] for r in ALL_RESOURCES})

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector({r: self._values[r] - other[r] for r in ALL_RESOURCES})

    def __mul__(self, scalar: float) -> "ResourceVector":
        return ResourceVector({r: self._values[r] * scalar for r in ALL_RESOURCES})

    __rmul__ = __mul__

    def scale(self, factors: Mapping[Resource, float]) -> "ResourceVector":
        """Element-wise multiplication by per-resource factors."""
        return ResourceVector(
            {r: self._values[r] * factors.get(r, 1.0) for r in ALL_RESOURCES}
        )

    def maximum(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector({r: max(self._values[r], other[r]) for r in ALL_RESOURCES})

    def minimum(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector({r: min(self._values[r], other[r]) for r in ALL_RESOURCES})

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def fits_within(self, capacity: "ResourceVector", epsilon: float = 1e-9) -> bool:
        """Return ``True`` when every component is <= the capacity component.

        The all-resource fit rule of the paper's vector bin packing
        (Section 3.3), as a scalar statement; the ledger in
        :mod:`repro.core.scheduler` applies it to whole server matrices.
        """
        return all(self._values[r] <= capacity[r] + epsilon for r in ALL_RESOURCES)

    def dominates(self, other: "ResourceVector") -> bool:
        """Return ``True`` when every component is >= the other's component."""
        return all(self._values[r] >= other[r] for r in ALL_RESOURCES)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return all(abs(self._values[r] - other[r]) < 1e-12 for r in ALL_RESOURCES)

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash(tuple(round(self._values[r], 12) for r in ALL_RESOURCES))

    # ------------------------------------------------------------------ #
    # Misc
    # ------------------------------------------------------------------ #
    def total(self) -> float:
        return sum(self._values.values())

    def __repr__(self) -> str:
        parts = ", ".join(f"{r.value}={v:g}" for r, v in self._values.items())
        return f"ResourceVector({parts})"
