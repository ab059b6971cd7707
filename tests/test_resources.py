"""Tests for the resource model (Table 1) and ResourceVector arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.core.resources import (
    ALL_RESOURCES,
    RESOURCE_FUNGIBILITY,
    SHARING_MECHANISMS,
    Fungibility,
    Resource,
    ResourceVector,
    is_fungible,
)


class TestFungibilityTable:
    def test_table1_has_all_paper_rows(self):
        expected = {"cpu", "memory_space", "memory_bandwidth", "network_bandwidth",
                    "accelerated_network", "storage_bandwidth", "local_storage_space",
                    "remote_storage_space", "gpu", "power"}
        assert expected == set(SHARING_MECHANISMS)

    def test_memory_space_is_non_fungible(self):
        assert SHARING_MECHANISMS["memory_space"].fungibility is Fungibility.NON_FUNGIBLE
        assert not is_fungible(Resource.MEMORY)

    def test_cpu_is_fungible_via_cpu_groups(self):
        assert SHARING_MECHANISMS["cpu"].is_fungible
        assert SHARING_MECHANISMS["cpu"].mechanism == "CPU groups"
        assert is_fungible(Resource.CPU)

    def test_every_tracked_resource_has_fungibility(self):
        assert set(RESOURCE_FUNGIBILITY) == set(ALL_RESOURCES)


class TestResourceVector:
    def test_construction_and_access(self):
        vec = ResourceVector.of(cpu=4, memory=16, network=2, ssd=128)
        assert vec[Resource.CPU] == 4
        assert vec[Resource.MEMORY] == 16
        assert vec.total() == 150

    def test_addition_and_subtraction(self):
        a = ResourceVector.of(cpu=2, memory=8)
        b = ResourceVector.of(cpu=1, memory=4, network=1)
        assert (a + b)[Resource.CPU] == 3
        assert (a - b)[Resource.MEMORY] == 4
        assert (a - b)[Resource.NETWORK] == -1

    def test_scalar_multiplication(self):
        vec = ResourceVector.of(cpu=2, memory=8) * 2.5
        assert vec[Resource.CPU] == 5
        assert vec[Resource.MEMORY] == 20

    def test_fits_within(self):
        demand = ResourceVector.of(cpu=4, memory=16, network=1, ssd=100)
        capacity = ResourceVector.of(cpu=40, memory=160, network=25, ssd=3000)
        assert demand.fits_within(capacity)
        assert not capacity.fits_within(demand)

    def test_fits_within_is_per_component(self):
        demand = ResourceVector.of(cpu=1, memory=200)
        capacity = ResourceVector.of(cpu=40, memory=160)
        assert not demand.fits_within(capacity)

    def test_maximum_minimum(self):
        a = ResourceVector.of(cpu=2, memory=8)
        b = ResourceVector.of(cpu=4, memory=4)
        assert a.maximum(b)[Resource.CPU] == 4
        assert a.minimum(b)[Resource.MEMORY] == 4

    def test_zero_and_equality(self):
        assert all(ResourceVector.zeros()[r] == 0.0 for r in ALL_RESOURCES)
        assert ResourceVector.of(cpu=1) == ResourceVector({Resource.CPU: 1})

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError):
            ResourceVector({"gpu": 1})


@given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=4, max_size=4))
def test_vector_add_then_subtract_roundtrips(values):
    vec = ResourceVector({r: v for r, v in zip(ALL_RESOURCES, values)})
    other = ResourceVector.uniform(3.5)
    assert (vec + other) - other == vec


@given(scale=st.floats(min_value=0, max_value=100),
       values=st.lists(st.floats(min_value=0, max_value=1e4), min_size=4, max_size=4))
def test_scaling_preserves_fit_ordering(scale, values):
    demand = ResourceVector({r: v for r, v in zip(ALL_RESOURCES, values)})
    capacity = demand * (1.0 + scale)
    assert demand.fits_within(capacity)
