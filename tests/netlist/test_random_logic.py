"""Property test: random logic DAGs built through the mapped builder
evaluate identically to their Python reference -- across constant
folding, CSE, fast reduction trees, and NAND-mapped muxes -- on the
interpreted simulator and on numpy bit-slice lanes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.core import CONST0, CONST1, Netlist
from repro.netlist.nsim import NumpySimulator
from tests.netlist.helpers import evaluate

#: Operation vocabulary: (name, arity).
OPS = [
    ("not", 1), ("and", 2), ("or", 2), ("xor", 2),
    ("nand", 2), ("nor", 2), ("xnor", 2), ("mux", 3), ("tsbuf", 2),
]

node_strategy = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 10_000),  # operand picks (mod available nodes)
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    ),
    min_size=1,
    max_size=40,
)


def build_both(netlist, ops, input_nets, input_values):
    """Build the DAG in the netlist and as Python booleans in parallel."""
    nets = [CONST0, CONST1, *input_nets]
    values = [0, 1, *input_values]
    for (name, arity), pick_a, pick_b, pick_c in ops:
        a = pick_a % len(nets)
        b = pick_b % len(nets)
        c = pick_c % len(nets)
        if name == "not":
            nets.append(netlist.not_(nets[a]))
            values.append(values[a] ^ 1)
        elif name == "and":
            nets.append(netlist.and_(nets[a], nets[b]))
            values.append(values[a] & values[b])
        elif name == "or":
            nets.append(netlist.or_(nets[a], nets[b]))
            values.append(values[a] | values[b])
        elif name == "xor":
            nets.append(netlist.xor_(nets[a], nets[b]))
            values.append(values[a] ^ values[b])
        elif name == "nand":
            nets.append(netlist.nand(nets[a], nets[b]))
            values.append((values[a] & values[b]) ^ 1)
        elif name == "nor":
            nets.append(netlist.nor(nets[a], nets[b]))
            values.append((values[a] | values[b]) ^ 1)
        elif name == "xnor":
            nets.append(netlist.xnor(nets[a], nets[b]))
            values.append((values[a] ^ values[b]) ^ 1)
        elif name == "tsbuf":  # no generated core instantiates TSBUF
            nets.append(netlist.add_instance("TSBUFX1", (nets[a], nets[b])))
            values.append(values[a] & values[b])
        else:  # mux
            nets.append(netlist.mux(nets[a], nets[b], nets[c]))
            values.append(values[c] if values[a] else values[b])
    return nets, values


def build_dag(ops, inputs):
    """The DAG with outputs ``y`` = its last eight nodes, and the Python
    value of ``y`` when input ``x`` is ``inputs``."""
    netlist = Netlist("random")
    bus = netlist.input_bus("x", 4)
    input_values = [(inputs >> i) & 1 for i in range(4)]
    nets, values = build_both(netlist, ops, list(bus.nets), input_values)
    netlist.output_bus("y", nets[-8:])
    expected = 0
    for i, value in enumerate(values[-8:]):
        expected |= value << i
    return netlist, expected


@settings(max_examples=120, deadline=None)
@given(ops=node_strategy, inputs=st.integers(0, 15))
def test_random_dag_matches_python_eval(ops, inputs):
    netlist, expected = build_dag(ops, inputs)
    assert evaluate(netlist, x=inputs)["y"] == expected
    # One numpy lane per input value, every lane against Python.
    per_value = [build_dag(ops, value)[1] for value in range(16)]
    lanes = NumpySimulator(netlist, 16)
    lanes.set_input("x", list(range(16)))
    lanes.settle()
    assert lanes.read_output("y") == per_value


@settings(max_examples=60, deadline=None)
@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=12),
)
def test_fast_reductions_match_semantics(bits):
    netlist = Netlist("reduce")
    bus = netlist.input_bus("x", len(bits))
    netlist.output_bus("all", [netlist.and_many(bus.nets)])
    netlist.output_bus("any", [netlist.or_many(bus.nets)])
    value = sum(bit << i for i, bit in enumerate(bits))
    out = evaluate(netlist, x=value)
    assert out["all"] == int(all(bits))
    assert out["any"] == int(any(bits))
