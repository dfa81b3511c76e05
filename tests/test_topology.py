"""Unit tests for fleet topology."""

import random

import pytest

from repro.cluster.topology import (
    Machine,
    Topology,
    build_topology,
)


def _machine(machine_id="m0", region="FRC", dc="FRC.dc0", rack="FRC.dc0.rack0"):
    return Machine(machine_id=machine_id, region=region, datacenter=dc,
                   rack=rack, capacity={"cpu": 100.0})


class TestTopology:
    def test_add_and_get(self):
        topology = Topology()
        machine = _machine()
        topology.add(machine)
        assert topology.get("m0") is machine
        assert topology.machines == [machine]

    def test_duplicate_id_rejected(self):
        topology = Topology()
        topology.add(_machine())
        with pytest.raises(ValueError):
            topology.add(_machine())

    def test_unknown_machine_raises(self):
        with pytest.raises(KeyError):
            Topology().get("ghost")

    def test_region_queries(self):
        topology = Topology()
        topology.add(_machine("a", region="FRC"))
        topology.add(_machine("b", region="PRN", dc="PRN.dc0",
                              rack="PRN.dc0.rack0"))
        assert [m.machine_id for m in topology.in_region("PRN")] == ["b"]


class TestBuildTopology:
    def test_counts(self):
        topology = build_topology(["FRC", "PRN"], machines_per_region=10)
        assert len(topology.machines) == 20
        assert len(topology.in_region("FRC")) == 10

    def test_fault_domain_structure(self):
        topology = build_topology(["FRC"], machines_per_region=16,
                                  datacenters_per_region=2,
                                  racks_per_datacenter=4)
        machines = topology.in_region("FRC")
        assert len({m.datacenter for m in machines}) == 2
        assert len({m.rack for m in machines}) == 8

    def test_capacity_jitter_bounds(self):
        topology = build_topology(["FRC"], machines_per_region=50,
                                  capacity={"cpu": 100.0},
                                  capacity_jitter=0.2,
                                  rng=random.Random(3))
        values = [m.capacity["cpu"] for m in topology.machines]
        assert min(values) >= 80.0
        assert max(values) <= 120.0
        assert len(set(values)) > 1  # actually heterogeneous

    def test_storage_fraction(self):
        topology = build_topology(["FRC"], machines_per_region=200,
                                  storage_fraction=0.5,
                                  rng=random.Random(3))
        storage = sum(1 for m in topology.machines if m.has_storage)
        assert 60 <= storage <= 140

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_topology(["FRC"], machines_per_region=0)
        with pytest.raises(ValueError):
            build_topology(["FRC"], machines_per_region=1, capacity_jitter=1.5)

    def test_unique_ids_across_regions(self):
        topology = build_topology(["A", "B", "C"], machines_per_region=5)
        ids = [m.machine_id for m in topology.machines]
        assert len(ids) == len(set(ids))
