import math
import tracemalloc

import numpy as np
import pytest

from isingpulse import (
    BasisState,
    ChainParams,
    Pulse,
    chaos_border,
    flip,
    spin_z,
    validate_selective,
)
from isingpulse import basis, protocol_fidelity
from isingpulse.hamiltonian import (
    RotFrameHam,
    _static_energy_table,
    h0_energy_table,
    rotating_energy_table,
)

from chain_helpers import single_flip_deltas, spin_z_columns, total_spin_z, xi


def _rot_ham(p, nu, Omega):
    """The pulse's Hamiltonian, built as the exact route builds it: from a
    validated Pulse."""
    pu = Pulse(nu=nu, Omega=Omega, duration=1.0, t_start=0.0)
    return RotFrameHam(p, pu.nu, pu.Omega)


# ------------------------------------------------------------------ h0


def test_h0_energy_hand_value():
    # L=2, omega0=0, a=1, J=1 on |00>: -(0+1)/2 - 2*(1/4) = -1
    p = ChainParams(L=2, omega0=0.0, a=1.0, J=1.0)
    assert h0_energy_table(p)[0] == pytest.approx(-1.0, abs=1e-14)


def test_ising_part_is_flip_symmetric():
    # The J-dependent part of the energy is even under a global spin flip.
    L = 5
    mask = (1 << L) - 1
    with_j = ChainParams(L=L, omega0=2.0, a=1.5, J=0.7)
    no_j = ChainParams(L=L, omega0=2.0, a=1.5, J=0.0)
    ising = h0_energy_table(with_j) - h0_energy_table(no_j)
    for i in range(1 << L):
        assert ising[i] == pytest.approx(ising[i ^ mask], abs=1e-12)


def test_zeeman_part_is_traceless():
    p = ChainParams(L=5, omega0=3.0, a=2.0, J=0.0)
    assert h0_energy_table(p).sum() == pytest.approx(0.0, abs=1e-9)


def test_h0_table_matches_scalar():
    # Each entry against the defining sum over one basis state's spins.
    p = ChainParams(L=4, omega0=1.3, a=0.9, J=0.4)
    table = h0_energy_table(p)
    for i in range(1 << 4):
        s = BasisState(i, 4)
        e = -sum(p.omega(k) * spin_z(s, k) for k in range(4))
        e -= 2.0 * p.J * sum(spin_z(s, k) * spin_z(s, k + 1) for k in range(3))
        assert table[i] == pytest.approx(e, abs=1e-12)


def test_h0_subset_matches_table_bit_for_bit():
    p = ChainParams(L=9, omega0=0.3, a=7.0, J=1.3)
    idx = [0, 5, 511, 256, 37, 5]
    assert h0_energy_table(p, idx).tolist() == h0_energy_table(p)[idx].tolist()


def test_h0_subset_beyond_int64_chains():
    # No 2^70 table: only the two requested states are evaluated.  All spins
    # +1/2 (index 0) or all -1/2: -/+ (sum of w_k)/2 - 2J (L-1)/4.
    L, p = 70, ChainParams(L=70, omega0=0.0, a=1.0, J=0.5)
    zeeman = sum(range(L)) / 2.0
    ising = 2.0 * p.J * (L - 1) / 4.0
    e = h0_energy_table(p, [0, (1 << L) - 1])
    assert e[0] == pytest.approx(-zeeman - ising, abs=1e-9)
    assert e[1] == pytest.approx(zeeman - ising, abs=1e-9)


def test_one_static_table_per_protocol_run():
    # Every pulse of both routes, and the ideal state, read the one cached
    # table of the chain.
    p = ChainParams(L=8, omega0=0.0, a=100.0, J=1.945)
    _static_energy_table.cache_clear()
    protocol_fidelity(p, 0.118, "both", "block+pt1")
    assert _static_energy_table.cache_info().misses == 1


def test_protocol_run_keeps_no_per_qubit_columns():
    # After a run only O(2^L) per-state arrays stay cached (the static
    # table, the total spin-z and the excitation counts), not L columns.
    for cached in (_static_energy_table, basis.total_spin_z,
                   basis.excitation_count, basis.spin_z_levels):
        cached.cache_clear()
    L = 16
    tracemalloc.start()
    try:
        protocol_fidelity(ChainParams(L=L, omega0=0.0, a=100.0, J=1.945), 0.118,
                          "pert", "block")
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 3 * (1 << L) * 8


@pytest.mark.parametrize("L", range(1, 16))
def test_h0_table_matches_per_qubit_construction_bit_for_bit(L):
    # Fields first, then couplings, in site order, from independent columns.
    cols = spin_z_columns(L)
    for p in (ChainParams(L=L, omega0=0.3, a=1.7, J=0.45),
              ChainParams(L=L, omega0=0.0, a=100.0, J=1.945)):
        want = np.zeros(1 << L)
        for k in range(L):
            want -= p.omega(k) * cols[k]
        for k in range(L - 1):
            want -= 2.0 * p.J * cols[k] * cols[k + 1]
        assert h0_energy_table(p).tobytes() == want.tobytes()


def test_h0_table_is_a_writable_copy_of_the_cache():
    p = ChainParams(L=6, omega0=0.5, a=3.0, J=0.7)
    before = rotating_energy_table(p, 1.7)
    table = h0_energy_table(p)
    assert table.flags.writeable
    table += 1.0
    assert rotating_energy_table(p, 1.7).tobytes() == before.tobytes()
    assert h0_energy_table(p).tobytes() == (table - 1.0).tobytes()


@pytest.mark.parametrize("L", range(1, 13))
def test_rotating_table_is_static_table_plus_spin_shift_bit_for_bit(L):
    # Two chains in turn, so the one-entry cache is evicted between them;
    # the subset path over every index builds the table without the cache.
    chains = [ChainParams(L=L, omega0=w0, a=1.3, J=J) for w0, J in ((0.2, 0.4), (5.0, 1.1))]
    for _ in range(2):
        for p in chains:
            nu = p.omega(L // 2)
            want = h0_energy_table(p) + nu * total_spin_z(L)
            assert rotating_energy_table(p, nu).tobytes() == want.tobytes()
            fresh = h0_energy_table(p, np.arange(1 << L))
            assert h0_energy_table(p).tobytes() == fresh.tobytes()


# ------------------------------------------------- single-flip deltas


def _closed_form_delta(s: BasisState, k: int, p: ChainParams) -> float:
    """Neighbour-resolved closed form: bulk |w_k + 2J*(sz_l + sz_r)|,
    border |w_k + 2J*sz_n|."""
    nbrs = [k - 1, k + 1]
    sz_sum = sum(spin_z(s, n) for n in nbrs if 0 <= n < p.L)
    return abs(p.omega(k) + 2.0 * p.J * sz_sum)


def test_single_flip_delta_border_ground():
    p = ChainParams(L=4, omega0=0.7, a=1.1, J=0.3)
    deltas = dict(single_flip_deltas(BasisState(0, 4), p))
    assert deltas[0] == pytest.approx(p.omega0 + p.J, abs=1e-12)
    assert deltas[3] == pytest.approx(p.omega(3) + p.J, abs=1e-12)


def test_single_flip_delta_bulk_patterns():
    # Bulk spin between one excited and one ground neighbour: |w_k| exactly.
    p = ChainParams(L=5, omega0=0.0, a=1.7, J=0.45)
    s = BasisState(0b00110, 5)  # qubits 1, 2 excited
    deltas = dict(single_flip_deltas(s, p))
    # qubit 3: neighbours 2 (excited) and 4 (ground) -> |w_3|
    assert deltas[3] == pytest.approx(p.omega(3), abs=1e-12)
    # qubit 0: border, neighbour 1 excited -> |w_0 - J|
    assert deltas[0] == pytest.approx(abs(p.omega0 - p.J), abs=1e-12)


def test_single_flip_deltas_match_closed_forms_exhaustively():
    rng = np.random.default_rng(7)
    L = 6
    for _ in range(4):
        p = ChainParams(
            L=L,
            omega0=float(rng.uniform(0, 5)),
            a=float(rng.uniform(0.5, 20)),
            J=float(rng.uniform(0, 3)),
        )
        for i in range(1 << L):
            s = BasisState(i, L)
            for k, d in single_flip_deltas(s, p):
                assert d == pytest.approx(_closed_form_delta(s, k, p), abs=1e-12)


def test_single_flip_deltas_has_L_entries():
    p = ChainParams(L=5, a=2.0)
    assert len(single_flip_deltas(BasisState(9, 5), p)) == 5


# ------------------------------------------------------ rotating-frame H


def test_rot_ham_zero_drive_is_diagonal():
    p = ChainParams(L=3, omega0=0.2, a=1.0, J=0.5)
    h = _rot_ham(p, nu=1.2, Omega=0.0).dense()
    assert np.allclose(h, np.diag(np.diag(h)))
    assert np.allclose(np.sort(np.diag(h)), np.sort(rotating_energy_table(p, 1.2)))


def test_rot_ham_offdiagonal_count_and_value():
    p = ChainParams(L=4, omega0=0.0, a=1.0, J=0.2)
    Omega = 0.37
    h = _rot_ham(p, nu=1.0, Omega=Omega).dense()
    off = h - np.diag(np.diag(h))
    nz = np.nonzero(off)
    assert len(nz[0]) == 2 * 4 * (1 << 3)  # L*2^(L-1) unordered pairs
    assert np.allclose(off[nz], -Omega / 2.0)


def test_rot_ham_single_qubit_matrix():
    p = ChainParams(L=1, omega0=2.0, a=1.0, J=0.0)
    nu, Omega = 1.5, 0.3
    xi = p.omega0 - nu
    h = _rot_ham(p, nu=nu, Omega=Omega).dense()
    assert np.allclose(h, [[-xi / 2, -Omega / 2], [-Omega / 2, xi / 2]], atol=1e-14)


def test_rot_ham_xi_exact():
    p = ChainParams(L=4, omega0=1.0, a=2.5, J=0.0)
    ham = _rot_ham(p, nu=3.2, Omega=0.1)
    for k in range(4):
        assert xi(ham)[k] == p.omega0 + p.a * k - 3.2
        # At J = 0, flipping qubit k alone costs its detuning on the diagonal.
        gap = ham.diagonal[1 << k] - ham.diagonal[0]
        assert gap == pytest.approx(xi(ham)[k], abs=1e-12)


def test_rot_ham_rejects_nonfinite():
    p = ChainParams(L=2, a=1.0)
    with pytest.raises(ValueError):
        _rot_ham(p, nu=np.nan, Omega=0.1)


# ------------------------------------------------------ fake transitions


# The fake-resonance couplings of an L = 6 chain at a = 100: a*k/4 and
# a*k/2 for k = 1..3, a*k and a*k/3 for k = 1..4.
FAKES_L6 = [100.0 * r for r in (1 / 4, 1 / 3, 1 / 2, 2 / 3, 3 / 4, 1, 4 / 3, 3 / 2,
                                2, 3, 4)]


def _fake_hits(L, a, J):
    return validate_selective(ChainParams(L=L, a=a, J=J), 0.118).fake_hits


def test_fake_transitions_smallest_largest():
    # Each family ends at k = L-off: its next value is hit only where another
    # family lists it, and one qubit more brings it in.
    for d, off in ((4, 3), (2, 3), (1, 2), (3, 2)):
        first, past = 100.0 * (1 / d), 100.0 * ((6 - off + 1) / d)
        assert _fake_hits(6, 100.0, first) == ((first, 0.0),)
        assert bool(_fake_hits(6, 100.0, past)) == (past in FAKES_L6)
        assert _fake_hits(7, 100.0, past) == ((past, 0.0),)


def test_fake_transitions_full_set_L6():
    for jf in FAKES_L6:
        assert _fake_hits(6, 100.0, jf) == ((jf, 0.0),)
    between = [0.5 * (lo + hi) for lo, hi in zip(FAKES_L6, FAKES_L6[1:])]
    for J in [10.0, *between, 500.0]:
        assert _fake_hits(6, 100.0, J) == ()


def test_fake_transitions_minimal_chain():
    # Only a/3 and a exist at L = 3, and nothing at L = 2.
    candidates = {12.0 * k / d for d in (1, 2, 3, 4) for k in range(1, 7)}
    hit = {J for J in candidates if _fake_hits(3, 12.0, J)}
    assert hit == {4.0, 12.0}
    assert not any(_fake_hits(2, 12.0, J) for J in candidates)


# ------------------------------------------------------ chaos border


def _coupled_states_brute(i: int, L: int) -> list[int]:
    """States reachable from i by the transverse drive (single flips)."""
    return [i ^ (1 << k) for k in range(L)]


def test_chaos_border_values():
    p = ChainParams(L=6, a=100.0, J=1.0)
    est = chaos_border(p)
    assert est.m_f == 6
    assert est.delta_e_f == pytest.approx(501.0)
    assert est.delta_f == pytest.approx(501.0 / 6.0)
    assert est.omega_cr == pytest.approx(2.0 * 501.0 / 6.0)
    assert est.omega_cr_approx == pytest.approx(100.0 + 1.0 / 6.0)


def test_chaos_border_brute_force_connectivity_and_spread():
    rng = np.random.default_rng(3)
    for _ in range(5):
        L = int(rng.integers(3, 8))
        p = ChainParams(
            L=L,
            omega0=0.0,
            a=float(rng.uniform(5, 50)),
            J=float(rng.uniform(0.0, 2.0)),
        )
        # nu tuned to the first site, as in the border estimate
        e_rot = rotating_energy_table(p, p.omega0)
        max_spread = 0.0
        for i in range(1 << L):
            coupled = _coupled_states_brute(i, L)
            assert len(coupled) == L  # M_f = L for every state
            max_spread = max(
                max_spread, max(abs(e_rot[j] - e_rot[i]) for j in coupled)
            )
        assert max_spread == pytest.approx(p.a * (L - 1) + p.J, abs=1e-9)


def test_selective_regime_is_below_chaos_border():
    rng = np.random.default_rng(11)
    for _ in range(20):
        L = int(rng.integers(3, 10))
        a = float(rng.uniform(10, 200))
        J = a * float(rng.uniform(0.005, 0.2))
        Omega = J * float(rng.uniform(0.01, 0.5))  # Omega < J < a ordering
        est = chaos_border(ChainParams(L=L, a=a, J=J))
        assert Omega < est.omega_cr
        assert Omega < est.omega_cr_approx
        assert est.is_below_border(Omega)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(L=3, a=0.0)
    with pytest.raises(ValueError):
        ChainParams(L=3, a=-1.0)
    with pytest.raises(ValueError):
        ChainParams(L=3, a=1.0, J=-0.1)
    with pytest.raises(ValueError):
        ChainParams(L=0, a=1.0)


@pytest.mark.parametrize("field", ["J", "a", "omega0"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chain_params_reject_non_finite_values(field, value):
    kw = dict(L=4, omega0=0.0, a=100.0, J=1.0)
    kw[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        ChainParams(**kw)
