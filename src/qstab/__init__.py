"""Exact-arithmetic qudit stabilizer states over prime and squarefree D.

The package covers the Pauli/Clifford algebra with exact phase tracking,
stabilizer groups and graph states, CRT decomposition for composite
dimensions, EPR/GHZ normal forms of bi- and tripartitions, stabilizer code
channel analysis with information-group duality, and a dense-matrix oracle
used for verification.
"""

from .canonicalize import (
    NormalForm,
    Partition,
    bipartition_normal_form,
    extract_epr_pair,
    extract_ghz,
    extract_unentangled,
    is_exact,
    tripartition_normal_form,
)
from .channel import (
    ChannelAnalysis,
    CodeSpec,
    analyze_channel,
    centralizer_in_pauli,
    code_to_choi_state,
    graph_choi_to_code,
    verify_duality,
)
from .clifford import Gate, conjugate, inverse_gates, pivot_to_x1
from .crt import decompose_group, decompose_state, split_generator, split_pauli
from .errors import QstabError
from .modring import CrtSplit, Modulus, crt_combine, factorize, inv_mod
from .pauli import PauliProduct
from .stabilizer import (
    GraphAdjacency,
    StabilizerGroup,
    epr_group,
    from_graph,
    ghz_group,
    reduced_rank,
    subgroup_on_part,
)

__all__ = [
    "ChannelAnalysis", "CodeSpec", "CrtSplit", "Gate",
    "GraphAdjacency", "Modulus", "NormalForm", "Partition", "PauliProduct",
    "QstabError", "StabilizerGroup", "analyze_channel",
    "bipartition_normal_form", "centralizer_in_pauli", "code_to_choi_state",
    "conjugate", "crt_combine", "decompose_group", "decompose_state",
    "epr_group", "extract_epr_pair", "extract_ghz", "extract_unentangled",
    "factorize", "from_graph", "ghz_group", "graph_choi_to_code",
    "inv_mod", "inverse_gates", "is_exact", "pivot_to_x1",
    "reduced_rank", "split_generator", "split_pauli", "subgroup_on_part",
    "tripartition_normal_form", "verify_duality",
]
__version__ = "0.1.0"
