"""Exception types shared across the package.

A pairing conflict in the block partition is not an error: it is resolved
greedily and counted in ``BlockPartition.n_conflicts``.
"""


class SpinChainError(Exception):
    """Base class for all package-specific errors."""


class CapacityError(SpinChainError):
    """Requested chain length exceeds what the chosen backend can handle."""


class FrameError(SpinChainError):
    """State-vector frame or time tag does not match the operation's contract."""


class ProtocolError(SpinChainError):
    """Pulse sequence is malformed or unsupported for the requested operation."""


class NumericalError(SpinChainError):
    """A numerical guarantee (norm conservation, finite values) was violated."""
