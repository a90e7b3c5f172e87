import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "state_digest", Path(__file__).resolve().parents[1] / "tools" / "state_digest.py"
)
state_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(state_digest)


def test_small_grid_digest_keeps_its_bits():
    # Block, ideal and block+pt1 final states and every whole partition of
    # both walks at L = 3..5 on the tool's J grid.  The exact route is left
    # out: its eigh's last bits depend on the BLAS build.
    small = state_digest.digest(max_L=5, pt1_max_L=5, exact_max_L=0)
    assert small == "de5098749d92b8c0a86ae3a0e6f3446bd6eb90ddf3030911f431b3addfd9ec73"
    assert state_digest.block_fidelity_hex(6) == "0x1.fe1f669d7e597p-1"
    # Each route, chain length and coupling of the grid moves the digest.
    base = state_digest.digest(4, 4, 4, grid_J=(1.945,))
    for other in [(4, 3, 4, (1.945,)), (4, 4, 3, (1.945,)), (3, 3, 3, (1.945,)),
                  (4, 4, 4, (0.8,))]:
        assert state_digest.digest(*other[:3], grid_J=other[3]) != base, other
