"""pathcirc: compile finite-state-machine graphs into boolean circuits
that verify claimed paths, ready for zk-SNARK toolchains."""

from .circuits import (
    BitVector,
    Circuit,
    CircuitBuilder,
    GateInstance,
    and_gate,
    bus_copy,
    constant,
    evaluate_batch,
    ext_equal,
    identity,
    nary_and,
    nary_or,
    not_gate,
    or_gate,
    primitive,
    seq,
    symmetry,
    tensor,
    truth_columns,
    xor_gate,
)
from .errors import (
    BudgetError,
    CapacityError,
    LengthError,
    ParseError,
    PathcircError,
    ValidationError,
    WidthError,
)
from .formats import CircuitDocument, document_from_json, from_json, to_bristol, to_json
from .graphs import (
    Edge,
    EdgeStep,
    Enumeration,
    Graph,
    GraphHom,
    IdStep,
    Path,
    TruthTable,
    all_graphs,
    edge_width,
    enumerate_graph,
    map_path,
    parse_graph,
    path_end,
    path_length,
    path_oracle,
    source_table,
    target_table,
    vertex_width,
)
from .synth import (
    assigned_vertex_circuit,
    filter_circuit,
    match_circuit,
    source_circuit,
    synth,
    target_circuit,
)
from .universal import (
    GraphEncoding,
    ZkpMorphism,
    capacity_enumeration,
    encode_graph,
    encoding_width,
    universal_source,
    universal_step,
    universal_target,
    universal_verifier,
    valid_graphs,
    zkp_compose,
    zkp_identity,
    zkp_snarkize,
)
from .verifiers import (
    KpMorphism,
    Verifier,
    compose,
    edge_evaluator,
    kp_compose,
    kp_identity,
    pad_path,
    path_verifier,
    snarkize,
    step_verifier,
    verifier_identity,
)

__version__ = "0.1.0"
