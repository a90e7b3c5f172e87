import numpy as np
import pytest

from isingpulse import (
    BasisState,
    CapacityError,
    ChainParams,
    FrameError,
    ProtocolError,
    Pulse,
    StateVector,
    basis,
    dynamical_fidelity,
    flip,
    format_state_table,
    ground_state,
    propagate_pulse,
)
from isingpulse.basis import (
    Support,
    SupportState,
    clocks_differ,
    excitation_count,
    spin_z_levels,
)
from isingpulse.exact import rotating_step
from isingpulse.protocol import Protocol

from chain_helpers import spin_z


def test_spin_z_all_ground():
    s = BasisState(0, 5)
    assert all(spin_z(s, k) == 0.5 for k in range(5))


def test_spin_z_all_excited():
    s = BasisState((1 << 5) - 1, 5)
    assert all(spin_z(s, k) == -0.5 for k in range(5))


def test_spin_z_single_flip():
    s = BasisState(1 << 3, 6)
    assert spin_z(s, 3) == -0.5
    assert spin_z(s, 2) == 0.5


def test_spin_z_out_of_range():
    s = BasisState(0, 4)
    with pytest.raises(ValueError):
        spin_z(s, 4)
    with pytest.raises(ValueError):
        spin_z(s, -1)


def test_flip_examples():
    L = 5
    assert flip(BasisState(0, L), 0).index == 1
    assert flip(BasisState(0, L), L - 1).index == 1 << (L - 1)
    with pytest.raises(ValueError):
        flip(BasisState(0, L), L)


def test_flip_involution_and_bijection():
    L = 5
    for k in range(L):
        images = set()
        for i in range(1 << L):
            s = BasisState(i, L)
            f = flip(s, k)
            assert flip(f, k) == s
            images.add(f.index)
        assert images == set(range(1 << L))


def test_flip_negates_spin_z():
    L = 4
    for i in range(1 << L):
        s = BasisState(i, L)
        for k in range(L):
            assert spin_z(flip(s, k), k) == -spin_z(s, k)


def test_basis_state_validation():
    with pytest.raises(ValueError):
        BasisState(4, 2)
    with pytest.raises(ValueError):
        BasisState(-1, 2)
    with pytest.raises(ValueError):
        BasisState(0, 0)


def test_ground_state_small():
    g1 = ground_state(1)
    assert np.allclose(g1.amplitudes, [1, 0])
    g2 = ground_state(2)
    assert np.allclose(g2.amplitudes, [1, 0, 0, 0])
    assert g2.time == 0.0
    assert g2.is_lab


@pytest.mark.parametrize("L", [1, 3, 7, 12])
def test_ground_state_norm(L):
    assert ground_state(L).norm() == pytest.approx(1.0, abs=1e-15)


def test_ground_state_cap():
    with pytest.raises(CapacityError):
        ground_state(21)
    with pytest.raises(ValueError):
        ground_state(0)


def test_state_vector_requires_power_of_two():
    with pytest.raises(ValueError, match="length 3 is not a power of two"):
        StateVector(np.ones(3, dtype=complex))


@pytest.mark.parametrize("amps, message", [
    (np.array(1.0), r"1-d array, got shape \(\)"),
    (np.ones((2, 2)), r"1-d array, got shape \(2, 2\)"),
    (np.ones((1, 4)), r"1-d array, got shape \(1, 4\)"),
    (np.ones(0), r"at least one qubit \(2 amplitudes\), got 0"),
    (np.ones(1), r"at least one qubit \(2 amplitudes\), got 1"),
], ids=["0-d", "2x2", "row", "empty", "L=0"])
def test_state_vector_rejects_bad_shapes(amps, message):
    # Each bad shape gets a ValueError that names it; a single amplitude
    # would be an L = 0 chain, which ground_state and BasisState refuse.
    with pytest.raises(ValueError, match=message):
        StateVector(amps)


def test_state_vector_smallest_chain_is_one_qubit():
    assert StateVector(np.array([1.0, 0.0])).L == 1


def test_frame_contract_helpers():
    psi = ground_state(2)
    psi.require_lab()
    with pytest.raises(FrameError):
        psi.require_rotating(1.0)
    rot = StateVector(psi.amplitudes, time=0.0, rot_nu=2.5)
    rot.require_rotating(2.5)
    with pytest.raises(FrameError):
        rot.require_lab()
    with pytest.raises(FrameError):
        rot.require_rotating(2.6)


@pytest.mark.parametrize("step", [1, 2], ids=["contiguous", "strided"])
def test_norm_agrees_with_linalg_norm(step):
    # The norm reads the amplitudes as one float vector; a strided view is
    # copied first.
    rng = np.random.default_rng(step)
    raw = rng.normal(size=2 << 12) + 1j * rng.normal(size=2 << 12)
    amps = raw[::step]
    want = np.linalg.norm(amps)
    assert StateVector(amps).norm() == pytest.approx(want, rel=1e-14)
    idx = np.arange(0, len(amps), 3)
    sup = SupportState(Support(idx, amps[idx]), L=StateVector(amps).L)
    assert sup.norm() == pytest.approx(np.linalg.norm(amps[idx]), rel=1e-14)
    amps[5] = np.nan
    assert np.isnan(StateVector(amps).norm())


def test_support_state_scatters_into_its_state_vector():
    sup = SupportState(Support(np.array([0, 5]), np.array([0.6, 0.8j])), L=3,
                       time=2.5, rot_nu=1.5)
    psi = sup.dense()
    assert psi.L == 3 and psi.time == 2.5 and psi.rot_nu == 1.5
    assert np.array_equal(psi.amplitudes, [0.6, 0, 0, 0, 0, 0.8j, 0, 0])
    assert sup.norm() == pytest.approx(1.0, abs=1e-15) and not sup.is_lab
    with pytest.raises(FrameError):
        sup.require_lab()
    with pytest.raises(CapacityError):
        SupportState(Support(np.array([0]), np.array([1.0])), L=21).dense()
    with pytest.raises(ValueError, match="one length"):
        SupportState(Support(np.array([0, 1]), np.array([1.0])), L=3)
    with pytest.raises(ValueError, match="at least one qubit"):
        SupportState(Support(np.array([0]), np.array([1.0])), L=0)
    # A negative index would wrap onto the end of the dense form, and an
    # unordered one would be misread by lookups that bisect the support.
    for bad in ([-1, 3], [3, 1], [1, 1], [0, 4], [0.0, 1.0], [True, False]):
        with pytest.raises(ValueError, match="support indices"):
            SupportState(Support(np.array(bad), np.array([0.6, 0.8])), L=2)
    empty = SupportState(Support(np.empty(0, dtype=np.intp), np.empty(0)), L=2)
    assert not empty.dense().amplitudes.any() and empty.norm() == 0.0


@pytest.mark.parametrize("L", range(1, 7))
def test_total_spin_z_matches_summed_scalar(L):
    assert not spin_z_levels(L).flags.writeable
    assert not excitation_count(L).flags.writeable
    tot = spin_z_levels(L)[excitation_count(L)]
    for i in range(1 << L):
        s = BasisState(i, L)
        assert tot[i] == sum(spin_z(s, k) for k in range(L))
    assert tot[0] == L / 2
    assert tot[(1 << L) - 1] == -L / 2


def test_state_table_format():
    psi = ground_state(2)
    lines = format_state_table(psi).strip().split("\n")
    assert len(lines) == 5  # header + 4 states
    first = lines[1].split()
    assert first[0] == "0"
    assert first[1] == "00"
    assert float(first[2]) == 1.0
    assert float(first[4]) == 1.0


def test_clocks_differ_relative_to_the_reference():
    assert not clocks_differ(1e-9, 0.0)
    assert clocks_differ(2e-9, 0.0)
    assert not clocks_differ(1e3 + 1e-6, 1e3)
    assert clocks_differ(1e3 + 2e-6, 1e3)
    # A NaN clock is never within the tolerance, on either side.
    assert clocks_differ(float("nan"), 0.0)
    assert clocks_differ(0.0, float("nan"))


def test_one_clock_tolerance_judges_every_clock(monkeypatch):
    p = ChainParams(L=3, a=100.0, J=1.0)
    pulse = Pulse(nu=50.0, Omega=0.1, duration=1.0, t_start=1e-12)
    early = StateVector(ground_state(3).amplitudes, time=1e-12)
    # Within the tolerance of zero, every check accepts the 1e-12 offset.
    Protocol(pulses=(pulse,), params=p)
    propagate_pulse(ground_state(3), pulse, p, step=rotating_step(lambda amps, _: amps))
    dynamical_fidelity(early, ground_state(3))
    monkeypatch.setattr(basis, "CLOCK_TOL", 0.0)
    with pytest.raises(ProtocolError):
        Protocol(pulses=(pulse,), params=p)
    with pytest.raises(FrameError):
        propagate_pulse(ground_state(3), pulse, p, step=rotating_step(lambda amps, _: amps))
    with pytest.raises(FrameError):
        dynamical_fidelity(early, ground_state(3))
