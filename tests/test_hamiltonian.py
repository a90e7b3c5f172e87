import numpy as np
import pytest

from isingpulse import (
    BasisState,
    ChainParams,
    Pulse,
    build_rot_ham,
    chaos_border,
    fake_transitions,
    flip,
    single_flip_deltas,
    spin_z,
)
from isingpulse.hamiltonian import h0_energy_table, rotating_energy_table


def _pulse(nu, Omega, phi=0.0):
    return Pulse(nu=nu, Omega=Omega, phi=phi, duration=1.0, t_start=0.0)


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
    h = build_rot_ham(p, _pulse(nu=1.2, Omega=0.0)).dense()
    assert np.allclose(h, np.diag(np.diag(h)))
    assert np.allclose(np.sort(np.diag(h)), np.sort(rotating_energy_table(p, 1.2)))


def test_rot_ham_offdiagonal_count_and_value():
    p = ChainParams(L=4, omega0=0.0, a=1.0, J=0.2)
    Omega = 0.37
    h = build_rot_ham(p, _pulse(nu=1.0, Omega=Omega)).dense()
    off = h - np.diag(np.diag(h))
    nz = np.nonzero(off)
    assert len(nz[0]) == 2 * 4 * (1 << 3)  # L*2^(L-1) unordered pairs
    assert np.allclose(off[nz], -Omega / 2.0)


def test_rot_ham_single_qubit_matrix():
    p = ChainParams(L=1, omega0=2.0, a=1.0, J=0.0)
    nu, Omega = 1.5, 0.3
    xi = p.omega0 - nu
    h = build_rot_ham(p, _pulse(nu=nu, Omega=Omega)).dense()
    assert np.allclose(h, [[-xi / 2, -Omega / 2], [-Omega / 2, xi / 2]], atol=1e-14)


def test_rot_ham_hermitian_with_phase():
    p = ChainParams(L=3, omega0=0.0, a=1.0, J=0.3)
    h = build_rot_ham(p, _pulse(nu=1.0, Omega=0.2, phi=0.8)).dense()
    assert np.array_equal(h, h.conj().T)
    ham = build_rot_ham(p, _pulse(nu=1.0, Omega=0.2, phi=0.8))
    assert not ham.is_real
    assert ham.alpha == pytest.approx(0.2 * np.cos(0.8))
    assert ham.beta == pytest.approx(0.2 * np.sin(0.8))


def test_rot_ham_xi_exact():
    p = ChainParams(L=4, omega0=1.0, a=2.5, J=0.0)
    ham = build_rot_ham(p, _pulse(nu=3.2, Omega=0.1))
    for k in range(4):
        assert ham.xi[k] == p.omega0 + p.a * k - 3.2


def test_rot_ham_rejects_nonfinite():
    p = ChainParams(L=2, a=1.0)
    with pytest.raises(ValueError):
        build_rot_ham(p, _pulse(nu=np.nan, Omega=0.1))


# ------------------------------------------------------ fake transitions


def test_fake_transitions_smallest_largest():
    p = ChainParams(L=6, a=100.0, J=1.0)
    fakes = fake_transitions(p)
    assert fakes == sorted(fakes)
    assert len(fakes) == len(set(fakes))
    assert fakes[0] == pytest.approx(25.0)  # a/4
    assert fakes[-1] == pytest.approx(400.0)  # a*(L-2)
    assert any(abs(f - 100.0 / 3.0) < 1e-9 for f in fakes)  # a/3 family


def test_fake_transitions_full_set_L6():
    p = ChainParams(L=6, a=100.0, J=1.0)
    expected = sorted(
        {25.0, 50.0, 75.0, 100.0, 150.0, 200.0, 300.0, 400.0}
        | {100.0 / 3.0, 200.0 / 3.0, 400.0 / 3.0}
    )
    assert fake_transitions(p) == pytest.approx(expected)


def test_fake_transitions_minimal_chain():
    p = ChainParams(L=3, a=12.0, J=1.0)
    assert fake_transitions(p) == pytest.approx([4.0, 12.0])  # a/3 and a
    with pytest.raises(ValueError):
        fake_transitions(ChainParams(L=2, a=1.0))


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
