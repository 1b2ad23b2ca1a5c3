import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczsim import graphs, topology
from kaczsim.errors import InfeasibleTopology
from oracles import adjacency


def test_three_agents_cap_two_is_complete():
    t = topology.build_pascal(3, 2, seed=0)
    assert t.neighbors == [[1, 2], [0, 2], [0, 1]]


def test_single_agent():
    t = topology.build_pascal(1, 5, seed=0)
    assert t.neighbors == [[]]
    assert graphs.strongly_connected(adjacency(t))


def test_default_cap_equals_agent_count():
    t = topology.build_pascal(13, 13, seed=1)
    assert graphs.strongly_connected(adjacency(t))
    assert max(t.degree(i) for i in range(13)) <= 12


def test_infeasible_caps():
    with pytest.raises(InfeasibleTopology):
        topology.build_pascal(2, 0, seed=0)
    with pytest.raises(InfeasibleTopology):
        topology.build_pascal(3, 1, seed=0)
    with pytest.raises(InfeasibleTopology):
        topology.build_pascal(0, 3, seed=0)


def test_symmetry_and_no_self_loops():
    t = topology.build_pascal(20, 4, seed=3)
    for i in range(20):
        assert i not in t.neighbors[i]
        for j in t.neighbors[i]:
            assert i in t.neighbors[j]


def test_determinism():
    a = topology.build_pascal(30, 5, seed=42)
    b = topology.build_pascal(30, 5, seed=42)
    assert a.neighbors == b.neighbors
    c = topology.build_pascal(30, 5, seed=43)
    assert a.neighbors != c.neighbors


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 200), st.integers(2, 20), st.integers(0, 2**31 - 1))
def test_connected_and_capped_for_all_feasible_inputs(agents, cap, seed):
    t = topology.build_pascal(agents, cap, seed)
    assert graphs.strongly_connected(adjacency(t))
    assert all(t.degree(i) <= cap for i in range(agents))


def test_fill_saturates_degrees():
    # with a generous cap every degree reaches min(cap, N-1)
    t = topology.build_pascal(10, 9, seed=7)
    assert all(t.degree(i) == 9 for i in range(10))
    t2 = topology.build_pascal(12, 4, seed=7)
    # degrees reach the cap unless no legal partner remains
    saturated = sum(1 for i in range(12) if t2.degree(i) == 4)
    assert saturated >= 10


def test_is_connected_negative_case():
    t = topology.Topology(2, 1, [[], []])
    assert not graphs.strongly_connected(adjacency(t))
