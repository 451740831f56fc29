"""Coverage for smaller surfaces: POA details, stub checks, IDL
introspection, locate over the replication router."""

import pytest

from repro.core import EternalSystem
from repro.orb import ORB, BadOperation
from repro.orb.idl import Servant, interface_of, operation
from repro.simnet import Network, Simulator
from repro.workloads import Counter


def make_pair():
    sim = Simulator()
    net = Network(sim)
    server = ORB(net, net.add_node("server"))
    client = ORB(net, net.add_node("client"))
    return sim, net, server, client


# ----------------------------------------------------------------------
# IDL introspection
# ----------------------------------------------------------------------

def test_interface_of_collects_operations_and_flags():
    info = interface_of(Counter)
    assert info.repository_id == "IDL:Counter:1.0"
    assert set(info.operations) == {"increment", "decrement", "read", "poke"}
    assert info.operations["read"].read_only
    assert info.operations["poke"].oneway
    assert not info.operations["increment"].oneway
    with pytest.raises(BadOperation):
        info.operation_info("nope")


def test_repository_id_override():
    class Custom(Servant):
        REPOSITORY_ID = "IDL:acme/Custom:2.3"

        @operation()
        def ping(self):
            return "pong"

    assert interface_of(Custom).repository_id == "IDL:acme/Custom:2.3"


def test_interface_cached_per_class():
    assert interface_of(Counter) is interface_of(Counter)
    assert interface_of(Counter()) is interface_of(Counter)


# ----------------------------------------------------------------------
# POA details
# ----------------------------------------------------------------------

def test_poa_duplicate_key_rejected():
    sim, net, server, client = make_pair()
    server.poa.activate(Counter(), object_key="k1")
    with pytest.raises(ValueError):
        server.poa.activate(Counter(), object_key="k1")


def test_poa_generated_keys_unique_and_listed():
    sim, net, server, client = make_pair()
    iors = [server.poa.activate(Counter()) for _ in range(3)]
    keys = [i.iiop_profiles()[0].object_key for i in iors]
    assert len(set(keys)) == 3
    assert set(keys) <= set(server.poa.object_keys())


def test_typed_orb_stub_interface_checking():
    sim, net, server, client = make_pair()
    ior = server.poa.activate(Counter())
    stub = client.stub(ior, interface=Counter)
    with pytest.raises(BadOperation):
        stub.no_such_op  # noqa: B018 - checked at attribute access


# ----------------------------------------------------------------------
# Locate through the replication router (fallback path)
# ----------------------------------------------------------------------

def test_locate_through_group_router_fallback():
    system = EternalSystem(["n1", "n2"]).start()
    system.stabilize()
    plain = system.nodes["n1"].orb.poa.activate(Counter())
    status = system.call(system.nodes["n2"].orb.locate(plain))
    assert status == 1  # OBJECT_HERE via the fallback direct path
