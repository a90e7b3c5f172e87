"""Print one sha256 over the walk's final states and partitions, and the
L = 20 block fidelity in hex, so that two revisions can be shown to give
the same outputs bit for bit.

The digest runs both walks at a = 100, Omega = 0.118, the walk from qubit
0 at omega0 = 0 and the mirror walk at omega0 = a, for J in 0.8, 1.945, 15
and 33.4.  It takes in the block and ideal final states at L = 3..14, the
block+pt1 final states and every pulse's whole partition at L <= 9, and
the exact final states at L <= 8.  A state enters as its amplitudes' and
clock's bytes, a partition as every field's dtype and bytes, each after a
label naming the run.  The second line gives the block route's ``f_pert``
at L = 20, J = 1.945.

BLAS defaults to one thread, so the exact route's eigh reads the same bits
from run to run.  Run it against the package it should check:

    PYTHONPATH=src python tools/state_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from isingpulse import (  # noqa: E402
    ChainParams,
    build_entanglement_protocol,
    build_ideal_state,
    ground_state,
    partition_blocks,
    protocol_fidelity,
    run_protocol,
    run_protocol_pert,
)

A, OMEGA = 100.0, 0.118
GRID_J = (0.8, 1.945, 15.0, 33.4)


def _state_bytes(psi) -> bytes:
    return psi.amplitudes.tobytes() + np.float64(psi.time).tobytes()


def _partition_bytes(part) -> bytes:
    out = []
    for f in dataclasses.fields(part):
        value = np.asarray(getattr(part, f.name))
        out.append(value.dtype.str.encode() + value.tobytes())
    return b"".join(out)


def digest(max_L=14, pt1_max_L=9, exact_max_L=8, grid_J=GRID_J) -> str:
    """The sha256 hex digest over the runs the module docstring lists, up
    to the given chain lengths and over the given couplings."""
    h = hashlib.sha256()

    def add(label, data):
        h.update(label.encode())
        h.update(data)

    for mirror in (False, True):
        for J in grid_J:
            for L in range(3, max_L + 1):
                p = ChainParams(L=L, omega0=A if mirror else 0.0, a=A, J=J)
                prot = build_entanglement_protocol(p, OMEGA, mirror=mirror)
                run = f"L={L} J={J!r} mirror={mirror}"
                add(f"block {run}", _state_bytes(run_protocol_pert(ground_state(L), prot)))
                add(f"ideal {run}", _state_bytes(build_ideal_state(prot)))
                if L <= pt1_max_L:
                    psi = run_protocol_pert(ground_state(L), prot, "block+pt1")
                    add(f"block+pt1 {run}", _state_bytes(psi))
                    for i, pu in enumerate(prot.pulses):
                        add(f"partition {i} {run}", _partition_bytes(partition_blocks(pu, p)))
                if L <= exact_max_L:
                    add(f"exact {run}", _state_bytes(run_protocol(ground_state(L), prot)))
    return h.hexdigest()


def block_fidelity_hex(L: int) -> str:
    """The block route's ``f_pert`` at a = 100, J = 1.945, Omega = 0.118."""
    return protocol_fidelity(ChainParams(L=L, a=A, J=1.945), OMEGA, "pert", "block").f_pert.hex()


if __name__ == "__main__":
    print(f"sha256 {digest()}")
    print(f"f_pert L=20 block {block_fidelity_hex(20)}")
