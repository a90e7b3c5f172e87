import math
import weakref

import numpy as np
import pytest
import scipy.linalg

from isingpulse import (
    BasisState,
    CapacityError,
    ChainParams,
    FrameError,
    NumericalError,
    Pulse,
    StateVector,
    build_entanglement_protocol,
    build_ideal_state,
    flip,
    from_rotating,
    ground_state,
    propagate_pulse,
    resonance_frequency,
    run_protocol,
    run_protocol_pert,
    to_rotating,
)
from isingpulse import exact
from isingpulse.exact import PulsePropagator, propagate_protocol
from isingpulse.hamiltonian import RotFrameHam

from chain_helpers import total_spin_z


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


@pytest.mark.parametrize("L", range(1, 13))
def test_frame_transforms_match_direct_phases_bit_for_bit(L):
    # The transforms exponentiate the L + 1 spin-z levels only; every
    # amplitude must come out as with one exponential per basis state.
    rng = np.random.default_rng(L)
    psi = _random_state(L, rng)
    amps = psi.amplitudes
    tsz = total_spin_z(L)
    cases = [(0.0, 0.0), (5.0, 0.0), (0.0, 3.0), (-7.25, 1.5), (237.3, 26.6),
             (1234.5678, 810.0), (3e3, 333.3)]  # the last two: nu*t ~ 1e6
    cases += [(float(rng.uniform(-500, 500)), float(rng.uniform(0, 2e3)))
              for _ in range(5)]
    for nu, t in cases:
        rot = to_rotating(psi, nu, t).amplitudes
        assert rot.tobytes() == (amps * np.exp(-1j * nu * t * tsz)).tobytes()
        lab = from_rotating(StateVector(amps, rot_nu=nu), nu, t).amplitudes
        assert lab.tobytes() == (amps * np.exp(1j * nu * t * tsz)).tobytes()


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
    pu = Pulse(nu=1.7, Omega=0.0, duration=3.1, t_start=0.0)
    out = propagate_pulse(psi, pu, p)
    assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes), atol=1e-12)
    assert out.time == pytest.approx(3.1)


def test_single_qubit_half_pulse_equal_superposition():
    # Resonant pi/2 pulse on one qubit: |c0|^2 = |c1|^2 = 1/2.
    p = ChainParams(L=1, omega0=3.0, a=1.0, J=0.0)
    Omega = 0.25
    pu = Pulse(
        nu=p.omega0, Omega=Omega, duration=math.pi / (2 * Omega), t_start=0.0
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
        nu=resonance_frequency(zero, 0, p), Omega=Omega,
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
        psi0, Pulse(nu=nu, Omega=Omega, duration=tau, t_start=0.0), p
    )
    half1 = propagate_pulse(
        psi0, Pulse(nu=nu, Omega=Omega, duration=tau / 2, t_start=0.0), p
    )
    half2 = propagate_pulse(
        half1, Pulse(nu=nu, Omega=Omega, duration=tau / 2, t_start=tau / 2), p
    )
    assert np.max(np.abs(full.amplitudes - half2.amplitudes)) < 1e-8

    h = RotFrameHam(p, nu, Omega).dense()
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
    pu = Pulse(nu=2.0, Omega=0.6, duration=2.5, t_start=0.0)
    out = propagate_pulse(psi, pu, p)

    rot_in = to_rotating(psi, pu.nu, 0.0)
    h = RotFrameHam(p, pu.nu, pu.Omega).dense()
    ref_rot = _rk4_reference(rot_in.amplitudes, h, pu.duration)
    ref = from_rotating(
        StateVector(ref_rot, time=pu.duration, rot_nu=pu.nu), pu.nu, pu.duration
    )
    assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < 1e-6


def test_propagator_unitarity_defect():
    p = ChainParams(L=4, omega0=0.0, a=5.0, J=0.5)
    pu = Pulse(nu=5.0, Omega=0.3, duration=2.0, t_start=0.0)
    prop = PulsePropagator.build(RotFrameHam(p, pu.nu, pu.Omega))
    assert _unitarity_defect(prop, pu.duration) < 1e-10


def test_pulse_clock_contract():
    p = ChainParams(L=2, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=2.0)
    with pytest.raises(FrameError):
        propagate_pulse(ground_state(2), pu, p)


@pytest.mark.parametrize(
    "run",
    [
        run_protocol,
        lambda psi, prot: run_protocol_pert(psi, prot, "block"),
        lambda psi, prot: run_protocol_pert(psi, prot, "block+pt1"),
    ],
    ids=["exact", "block", "block+pt1"],
)
def test_state_with_wrong_qubit_count_is_refused(run):
    # Such a state used to reach the step: a matmul ValueError on the exact
    # route, an IndexError on both pert routes.
    prot = build_entanglement_protocol(ChainParams(L=4, a=100.0, J=1.945), 0.118)
    with pytest.raises(FrameError, match="state has 3 qubits, the chain has 4"):
        run(ground_state(3), prot)


def test_norm_guard_rejects_nan_amplitudes():
    # abs(nan - 1) > tol is False, so the guard has to be written to fail
    # on NaN.
    p = ChainParams(L=3, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=0.0)

    def step(amps, pulse):
        return np.full_like(amps, np.nan)

    with pytest.raises(NumericalError, match="norm drifted to nan"):
        propagate_pulse(ground_state(3), pu, p, step)


def test_capacity_cap():
    p = ChainParams(L=15, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=0.0)
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


# ------------------------------------------------------ eigensystem cache


def _count_builds(monkeypatch):
    """Weak references to every propagator built from now on."""
    built = []
    original = PulsePropagator.build.__func__

    def build(cls, ham):
        prop = original(cls, ham)
        built.append(weakref.ref(prop))
        return prop

    monkeypatch.setattr(PulsePropagator, "build", classmethod(build))
    return built


@pytest.mark.parametrize("L", range(4, 10))
def test_walk_builds_one_eigensystem_per_transition(monkeypatch, L):
    # The 2L - 2 walk pulses drive L + 1 distinct transitions on paper:
    # each qubit with one excited neighbour, qubit 0 from |0...0> and the
    # one flip-back with both neighbours excited.
    built = _count_builds(monkeypatch)
    walks = [(0.0, False, J) for J in (0.8, 1.945, 2.7)] + [(100.0, True, 1.945)]
    for omega0, mirror, J in walks:
        p = ChainParams(L=L, omega0=omega0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        built.clear()
        run_protocol(ground_state(L), prot)
        assert len(built) == L + 1, f"J={J} mirror={mirror}"


def test_hand_built_pulses_with_equal_frequency_share_one_build(monkeypatch):
    from isingpulse.protocol import Protocol

    built = _count_builds(monkeypatch)
    p = ChainParams(L=3, omega0=0.0, a=10.0, J=0.7)
    pulses = (
        Pulse(nu=10.2, Omega=0.3, duration=1.5, t_start=0.0),
        Pulse(nu=10.2, Omega=0.3, duration=2.5, t_start=1.5),
        Pulse(nu=10.2, Omega=0.4, duration=1.0, t_start=4.0),
    )
    run_protocol(ground_state(3), Protocol(pulses=pulses, params=p))
    assert len(built) == 2


def test_eigensystem_is_freed_after_its_last_use(monkeypatch):

    built = _count_builds(monkeypatch)
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    keys = [exact._transition_key(pu) for pu in prot.pulses]
    last_use = {key: i for i, key in enumerate(keys)}
    refs = {}  # transition key -> weakref to its propagator
    done = []
    original = exact.propagate_pulse

    def propagate_pulse(psi, pulse, p, step=None):
        i = len(done)
        out = original(psi, pulse, p, step)
        refs.setdefault(keys[i], built[-1])
        done.append(i)
        for key, ref in refs.items():
            assert (ref() is None) == (last_use[key] <= i), f"pulse {i} key {key}"
        return out

    monkeypatch.setattr(exact, "propagate_pulse", propagate_pulse)
    run_protocol(ground_state(6), prot)
    assert len(done) == len(prot.pulses)
    assert len(refs) == p.L + 1


def test_pulse_whose_nu_disagrees_with_its_target_gets_its_own_build(monkeypatch):
    # Pulse 5 of the L = 5 walk flips qubit 2 back with one excited
    # neighbour, the transition pulse 2 drove; detuned, it must not reuse
    # pulse 2's eigensystem, and runs as if it carried no target.
    from dataclasses import replace

    from isingpulse.protocol import Protocol

    built = _count_builds(monkeypatch)
    p = ChainParams(L=5, omega0=0.0, a=100.0, J=1.945)
    walk = build_entanglement_protocol(p, 0.118).pulses
    assert exact._transition_key(walk[5]) == exact._transition_key(walk[2])
    detuned = replace(walk[5], nu=walk[5].nu + 0.3)
    annotated = Protocol(pulses=walk[:5] + (detuned,) + walk[6:], params=p)
    bare = Protocol(
        pulses=walk[:5] + (replace(detuned, target=None),) + walk[6:], params=p
    )
    out = run_protocol(ground_state(5), annotated).amplitudes
    assert len(built) == p.L + 2
    assert np.array_equal(out, run_protocol(ground_state(5), bare).amplitudes)


def _reference_step(p):
    """The exact step as first written: scipy's default eigh driver and a
    cache keyed by the float (nu, Omega), applied in complex."""
    cache = {}

    def step(amps, pulse):
        key = (pulse.nu, pulse.Omega)
        if key not in cache:
            h = RotFrameHam(p, pulse.nu, pulse.Omega).dense()
            cache[key] = scipy.linalg.eigh(h, check_finite=False, driver="evr")
        w, v = cache[key]
        return v @ (np.exp(-1j * w * pulse.duration) * (v.conj().T @ amps))

    return step


def _expm_reference(psi, prot):
    for pu in prot.pulses:
        h = RotFrameHam(prot.params, pu.nu, pu.Omega).dense()
        rot = to_rotating(psi, pu.nu, pu.t_start).amplitudes
        out = scipy.linalg.expm(-1j * h * pu.duration) @ rot
        psi = from_rotating(StateVector(out, time=pu.t_end, rot_nu=pu.nu), pu.nu, pu.t_end)
    return psi.amplitudes


@pytest.mark.parametrize("L", range(4, 10))
def test_dense_step_matches_evr_float_key_reference(L):
    # The two steps differ by the rounding of two different eigensolvers,
    # a few ulps of |H| ~ a*L on each eigenphase over tau = pi/Omega: up to
    # 1.1e-10 in an amplitude at L = 9, the reference's own distance from
    # expm (below).  The fidelity, which these errors barely move, agrees
    # far closer.  One J per L keeps the L = 9 reference to a few seconds.
    J = (0.8, 1.945, 2.7)[L % 3]
    for omega0, mirror in ((0.0, False), (100.0, True)):
        p = ChainParams(L=L, omega0=omega0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        new = run_protocol(ground_state(L), prot).amplitudes
        ref = propagate_protocol(ground_state(L), prot, _reference_step(p)).amplitudes
        assert np.max(np.abs(new - ref)) < 3e-10, f"mirror={mirror}"
        ideal = build_ideal_state(prot).amplitudes
        f_new = abs(np.vdot(ideal, new)) ** 2
        f_ref = abs(np.vdot(ideal, ref)) ** 2
        assert abs(f_new - f_ref) < 1e-11, f"mirror={mirror}"


@pytest.mark.parametrize("L", [6, 8])
def test_dense_step_matches_expm(L):
    # Divide and conquer keeps every amplitude within 1.5e-11 of expm at
    # these points; the evr reference strays up to 1.2e-10.
    for omega0, mirror, J in ((0.0, False, 2.7), (100.0, True, 19.0)):
        p = ChainParams(L=L, omega0=omega0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        new = run_protocol(ground_state(L), prot).amplitudes
        assert np.max(np.abs(new - _expm_reference(ground_state(L), prot))) < 5e-11
