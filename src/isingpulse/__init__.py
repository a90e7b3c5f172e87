"""Simulator for a driven Ising spin-chain quantum register.

Exact and perturbative propagation of rectangular rf pulse sequences on an
L-qubit chain with per-site Larmor frequencies and nearest-neighbour Ising
coupling, the end-to-end entanglement walk built on top of it, and the
dynamical-fidelity analysis of that walk.
"""

from .basis import (
    BasisState,
    StateVector,
    flip,
    format_state_table,
    ground_state,
)
from .errors import (
    CapacityError,
    FrameError,
    NumericalError,
    ProtocolError,
    SpinChainError,
)
from .exact import from_rotating, propagate_pulse, run_protocol, to_rotating
from .fidelity import (
    FidelityReport,
    build_ideal_state,
    dynamical_fidelity,
    protocol_fidelity,
)
from .hamiltonian import (
    ChainParams,
    ChaosEstimate,
    chaos_border,
    h0_energy_table,
)
from .pert import (
    BlockPartition,
    epsilon_param,
    partition_blocks,
    run_protocol_pert,
)
from .protocol import (
    Protocol,
    Pulse,
    build_entanglement_protocol,
    format_protocol_table,
    spectator_detunings,
    two_pi_k_omega,
    validate_selective,
)

__version__ = "0.1.0"

__all__ = [
    "BasisState",
    "BlockPartition",
    "CapacityError",
    "ChainParams",
    "ChaosEstimate",
    "FidelityReport",
    "FrameError",
    "NumericalError",
    "Protocol",
    "ProtocolError",
    "Pulse",
    "SpinChainError",
    "StateVector",
    "build_entanglement_protocol",
    "build_ideal_state",
    "chaos_border",
    "dynamical_fidelity",
    "epsilon_param",
    "flip",
    "format_protocol_table",
    "format_state_table",
    "from_rotating",
    "ground_state",
    "h0_energy_table",
    "partition_blocks",
    "propagate_pulse",
    "protocol_fidelity",
    "run_protocol",
    "run_protocol_pert",
    "spectator_detunings",
    "to_rotating",
    "two_pi_k_omega",
    "validate_selective",
]
