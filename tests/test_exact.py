import math

import numpy as np
import pytest

from isingpulse import (
    BasisState,
    CapacityError,
    ChainParams,
    FrameError,
    Pulse,
    StateVector,
    build_entanglement_protocol,
    build_rot_ham,
    flip,
    from_rotating,
    ground_state,
    propagate_pulse,
    resonance_frequency,
    run_protocol,
    to_rotating,
)
from isingpulse.exact import PulsePropagator


def _unitarity_defect(prop, tau, n_samples=8):
    """Max deviation of sampled columns of U from unit norm and of sampled
    column pairs from orthogonality."""
    n = prop.eigenvalues.shape[0]
    cols = np.linspace(0, n - 1, min(n_samples, n)).astype(int)
    basis = np.zeros((n, len(cols)), dtype=complex)
    basis[cols, np.arange(len(cols))] = 1.0
    u = np.column_stack([prop.apply(basis[:, i], tau) for i in range(len(cols))])
    gram = u.conj().T @ u
    return float(np.max(np.abs(gram - np.eye(len(cols)))))


def _random_state(L, rng, t=0.0):
    amps = rng.normal(size=1 << L) + 1j * rng.normal(size=1 << L)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, time=t, rot_nu=None)


# ------------------------------------------------------ frame transforms


def test_to_rotating_identity_at_t0():
    psi = ground_state(3)
    rot = to_rotating(psi, 5.0, 0.0)
    assert np.allclose(rot.amplitudes, psi.amplitudes, atol=1e-15)
    assert rot.rot_nu == 5.0


def test_frame_round_trip():
    rng = np.random.default_rng(0)
    psi = _random_state(4, rng)
    back = from_rotating(to_rotating(psi, 3.7, 11.3), 3.7, 11.3)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-14
    assert back.is_lab


def test_all_ground_frame_phase():
    # |0...0> has total spin-z +L/2, so it picks up exp(-i nu t L/2).
    L, nu, t = 4, 2.0, 0.9
    rot = to_rotating(ground_state(L), nu, t)
    assert rot.amplitudes[0] == pytest.approx(np.exp(-1j * nu * t * L / 2), abs=1e-14)


def test_frame_mismatch_raises():
    psi = ground_state(2)
    rot = to_rotating(psi, 1.0, 0.0)
    with pytest.raises(FrameError):
        to_rotating(rot, 1.0, 0.0)
    with pytest.raises(FrameError):
        from_rotating(psi, 1.0, 0.0)
    with pytest.raises(FrameError):
        from_rotating(rot, 2.0, 0.0)


# ------------------------------------------------------ single pulses


def test_zero_drive_keeps_populations():
    rng = np.random.default_rng(1)
    p = ChainParams(L=4, omega0=0.4, a=2.2, J=0.6)
    psi = _random_state(4, rng)
    pu = Pulse(nu=1.7, Omega=0.0, phi=0.0, duration=3.1, t_start=0.0)
    out = propagate_pulse(psi, pu, p)
    assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes), atol=1e-12)
    assert out.time == pytest.approx(3.1)


def test_single_qubit_half_pulse_equal_superposition():
    # Resonant pi/2 pulse on one qubit: |c0|^2 = |c1|^2 = 1/2.
    p = ChainParams(L=1, omega0=3.0, a=1.0, J=0.0)
    Omega = 0.25
    pu = Pulse(
        nu=p.omega0, Omega=Omega, phi=0.0,
        duration=math.pi / (2 * Omega), t_start=0.0,
    )
    out = propagate_pulse(ground_state(1), pu, p)
    probs = np.abs(out.amplitudes) ** 2
    assert probs[0] == pytest.approx(0.5, abs=1e-10)
    assert probs[1] == pytest.approx(0.5, abs=1e-10)


def test_resonant_pi_pulse_full_transfer():
    p = ChainParams(L=3, omega0=0.0, a=50.0, J=0.5)
    Omega = 0.05
    zero = BasisState(0, 3)
    pu = Pulse(
        nu=resonance_frequency(zero, 0, p), Omega=Omega, phi=0.0,
        duration=math.pi / Omega, t_start=0.0,
    )
    out = propagate_pulse(ground_state(3), pu, p)
    assert abs(out.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-4)


def test_semigroup_and_energy_conservation():
    # One full pulse equals two half pulses; <H> in the rotating frame is
    # conserved across the split to 1e-8.
    p = ChainParams(L=3, omega0=0.0, a=10.0, J=0.7)
    Omega, nu, tau = 0.3, 10.2, 4.0
    psi0 = ground_state(3)
    full = propagate_pulse(
        psi0, Pulse(nu=nu, Omega=Omega, phi=0.0, duration=tau, t_start=0.0), p
    )
    half1 = propagate_pulse(
        psi0, Pulse(nu=nu, Omega=Omega, phi=0.0, duration=tau / 2, t_start=0.0), p
    )
    half2 = propagate_pulse(
        half1, Pulse(nu=nu, Omega=Omega, phi=0.0, duration=tau / 2, t_start=tau / 2), p
    )
    assert np.max(np.abs(full.amplitudes - half2.amplitudes)) < 1e-8

    h = build_rot_ham(p, Pulse(nu=nu, Omega=Omega, phi=0.0, duration=tau,
                               t_start=0.0)).dense()
    energies = []
    for state, t in ((psi0, 0.0), (half1, tau / 2), (full, tau)):
        rot = to_rotating(state, nu, t)
        energies.append(np.vdot(rot.amplitudes, h @ rot.amplitudes).real)
    assert abs(energies[0] - energies[1]) < 1e-8
    assert abs(energies[1] - energies[2]) < 1e-8


def _rk4_reference(psi_rot, h, tau, steps=40000):
    """Independent 4th-order integrator of i dc/dt = H c, stationary H."""
    c = psi_rot.astype(complex).copy()
    dt = tau / steps
    def rhs(v):
        return -1j * (h @ v)
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * dt * k1)
        k3 = rhs(c + 0.5 * dt * k2)
        k4 = rhs(c + dt * k3)
        c += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return c


@pytest.mark.parametrize("L", [2, 3, 4])
def test_exact_pulse_matches_small_step_integrator(L):
    rng = np.random.default_rng(L)
    p = ChainParams(L=L, omega0=0.5, a=3.0, J=0.4)
    psi = _random_state(L, rng)
    pu = Pulse(nu=2.0, Omega=0.6, phi=0.0, duration=2.5, t_start=0.0)
    out = propagate_pulse(psi, pu, p)

    rot_in = to_rotating(psi, pu.nu, 0.0)
    ref_rot = _rk4_reference(rot_in.amplitudes, build_rot_ham(p, pu).dense(),
                             pu.duration)
    ref = from_rotating(
        StateVector(ref_rot, time=pu.duration, rot_nu=pu.nu), pu.nu, pu.duration
    )
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-6


def test_propagator_unitarity_defect():
    p = ChainParams(L=4, omega0=0.0, a=5.0, J=0.5)
    pu = Pulse(nu=5.0, Omega=0.3, phi=0.4, duration=2.0, t_start=0.0)
    prop = PulsePropagator.build(build_rot_ham(p, pu))
    assert _unitarity_defect(prop, pu.duration) < 1e-10


def test_pulse_clock_contract():
    p = ChainParams(L=2, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, phi=0.0, duration=1.0, t_start=2.0)
    with pytest.raises(FrameError):
        propagate_pulse(ground_state(2), pu, p)


def test_capacity_cap():
    p = ChainParams(L=15, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, phi=0.0, duration=1.0, t_start=0.0)
    psi = StateVector(np.eye(1, 1 << 15, dtype=complex)[0])
    with pytest.raises(CapacityError):
        propagate_pulse(psi, pu, p)


# ------------------------------------------------------ full protocol


def test_empty_protocol_is_identity():
    from isingpulse.protocol import Protocol

    p = ChainParams(L=3, a=1.0)
    psi = ground_state(3)
    out = run_protocol(psi, Protocol(pulses=(), params=p))
    assert np.array_equal(out.amplitudes, psi.amplitudes)


def test_protocol_run_preserves_norm():
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    psi = run_protocol(ground_state(6), prot)
    assert abs(psi.norm() - 1.0) < 1e-10
    assert psi.time == pytest.approx(prot.total_time)
    assert psi.is_lab


def test_protocol_is_time_ordered_composition():
    # Running the protocol equals folding propagate_pulse by hand.
    p = ChainParams(L=4, omega0=0.0, a=20.0, J=0.8)
    prot = build_entanglement_protocol(p, 0.15)
    psi = ground_state(4)
    for pu in prot.pulses:
        psi = propagate_pulse(psi, pu, p)
    assert np.allclose(
        psi.amplitudes, run_protocol(ground_state(4), prot).amplitudes, atol=1e-12
    )
