import math
import weakref
from dataclasses import replace
from functools import partial

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
    ground_state,
    propagate_pulse,
    run_protocol,
    run_protocol_pert,
)
from isingpulse import exact, fidelity, pert
from isingpulse.basis import Support, SupportState
from isingpulse.exact import (
    PulsePropagator,
    from_rotating,
    propagate_protocol,
    rotating_step,
    to_rotating,
)
from isingpulse.hamiltonian import RotFrameHam
from isingpulse.pert import _block_step, partition_blocks

from chain_helpers import full_array_step, resonance_frequency, total_spin_z


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
    return StateVector(amps, time=t)


# ------------------------------------------------------ frame transforms


def test_to_rotating_identity_at_t0():
    amps = ground_state(3).amplitudes
    assert np.allclose(to_rotating(amps, 5.0, 0.0), amps, atol=1e-15)


def test_frame_round_trip():
    rng = np.random.default_rng(0)
    amps = _random_state(4, rng).amplitudes
    back = from_rotating(to_rotating(amps, 3.7, 11.3), 3.7, 11.3)
    assert np.max(np.abs(back - amps)) < 1e-14


def test_all_ground_frame_phase():
    # |0...0> has total spin-z +L/2, so it picks up exp(-i nu t L/2).
    L, nu, t = 4, 2.0, 0.9
    rot = to_rotating(ground_state(L).amplitudes, nu, t)
    assert rot[0] == pytest.approx(np.exp(-1j * nu * t * L / 2), abs=1e-14)


@pytest.mark.parametrize("L", [*range(1, 13), 16])
def test_frame_transforms_match_direct_phases_bit_for_bit(L):
    # The transforms are propagate_pulse's frame arithmetic
    # (exact.frame_phase on the L + 1 spin-z levels) on a whole array;
    # every amplitude must come out as with one exponential per basis
    # state.
    # The references call np.multiply, so that past 2^14 entries numpy
    # cannot evaluate them in place in the temporary, operands swapped.
    rng = np.random.default_rng(L)
    psi = _random_state(L, rng)
    amps = psi.amplitudes
    tsz = total_spin_z(L)
    cases = [(0.0, 0.0), (5.0, 0.0), (0.0, 3.0), (-7.25, 1.5), (237.3, 26.6),
             (1234.5678, 810.0), (3e3, 333.3)]  # the last two: nu*t ~ 1e6
    cases += [(float(rng.uniform(-500, 500)), float(rng.uniform(0, 2e3)))
              for _ in range(5)]
    for nu, t in cases:
        rot = to_rotating(amps, nu, t)
        assert rot.tobytes() == np.multiply(amps, np.exp(-1j * nu * t * tsz)).tobytes()
        lab = from_rotating(amps, nu, t)
        assert lab.tobytes() == np.multiply(amps, np.exp(1j * nu * t * tsz)).tobytes()


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
        rot = to_rotating(state.amplitudes, nu, t)
        energies.append(np.vdot(rot, h @ rot).real)
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

    rot_in = to_rotating(psi.amplitudes, pu.nu, 0.0)
    h = RotFrameHam(p, pu.nu, pu.Omega).dense()
    ref = from_rotating(_rk4_reference(rot_in, h, pu.duration), pu.nu, pu.duration)
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-6


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
    nan_clock = StateVector(ground_state(2).amplitudes, time=math.nan)
    with pytest.raises(FrameError, match="state clock nan"):
        propagate_pulse(nan_clock, pu, p)


def _on_support(psi):
    """The same state as a SupportState: its nonzero entries and its clock.
    Anything but a StateVector passes through as it is."""
    if not isinstance(psi, StateVector):
        return psi
    idx = np.flatnonzero(psi.amplitudes)
    return SupportState(Support(idx, psi.amplitudes[idx]), psi.L, time=psi.time)


ROUTES = {
    "exact": run_protocol,
    "block": lambda psi, prot: run_protocol_pert(psi, prot, "block"),
    "block+pt1": lambda psi, prot: run_protocol_pert(psi, prot, "block+pt1"),
    "ideal": lambda psi, prot: propagate_protocol(
        _on_support(psi), prot, partial(fidelity._ideal_step, prot.params)
    ),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_state_with_wrong_qubit_count_is_refused(route):
    # Such a state used to reach the step: a matmul ValueError on the exact
    # route, an IndexError on both pert routes.  The ideal step takes the
    # state on its support.
    prot = build_entanglement_protocol(ChainParams(L=4, a=100.0, J=1.945), 0.118)
    with pytest.raises(FrameError, match="state has 3 qubits, the chain has 4"):
        ROUTES[route](ground_state(3), prot)


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_refuses_a_rotating_state_and_a_stale_or_nan_clock(route):
    # Each step applies the frame itself, so the driver alone stands
    # between it and a state that is not in the lab frame at the pulse
    # start.  Rotating-frame amplitudes exist only as the bare array
    # to_rotating returns, which no route takes for a state.
    prot = build_entanglement_protocol(ChainParams(L=4, a=100.0, J=1.945), 0.118)
    amps = ground_state(4).amplitudes
    for psi, match in (
        (to_rotating(amps, prot.pulses[0].nu, 0.0), "expected lab-frame state"),
        (StateVector(amps, time=prot.pulses[1].t_start), "does not match pulse start"),
        (StateVector(amps, time=math.nan), "state clock nan"),
    ):
        with pytest.raises(FrameError, match=match):
            ROUTES[route](psi, prot)


@pytest.mark.parametrize("L", [16, 18])
def test_frame_at_the_gather_equals_full_array_transforms(L):
    # Past 2^14 entries numpy may evaluate ``x * temporary`` in place in
    # the temporary, with the operands swapped, which can move the last
    # bit of a complex product; the block step's live pairs reach that
    # size at L = 16.  The references run the same steps on rotating-frame
    # amplitudes between full-array transforms with one exponential per
    # basis state (chain_helpers.full_array_step), with unit frame levels,
    # a product that is exact.  The ideal step runs on the support of the
    # rotating-frame amplitudes there, scattered back into 2^L entries.
    p = ChainParams(L=L, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    one = np.ones(L + 1, dtype=complex)

    @full_array_step
    def block(amps, pulse):
        part = partition_blocks(pulse, p)
        return _block_step(part, pulse.Omega, pulse.duration, amps, one, one)

    @full_array_step
    def ideal(amps, pulse):
        idx = np.flatnonzero(amps)
        support = fidelity._ideal_step(p, Support(idx, amps[idx]), pulse, one, one)
        out = np.zeros_like(amps)
        out[support.indices] = support.values
        return out

    got = run_protocol_pert(ground_state(L), prot, "block").amplitudes
    want = propagate_protocol(ground_state(L), prot, block).amplitudes
    assert np.array_equal(got, want)
    got = build_ideal_state(prot).amplitudes
    want = propagate_protocol(ground_state(L), prot, ideal).amplitudes
    assert np.array_equal(got, want)


def _bare_dense_step(p):
    """The exact step on rotating-frame amplitudes, one eigensystem per
    distinct (nu, Omega)."""
    props = {}

    def step(amps, pulse):
        key = (pulse.nu, pulse.Omega)
        if key not in props:
            props[key] = PulsePropagator.build(RotFrameHam(p, *key))
        return props[key].apply(amps, pulse.duration)

    return step


def _bare_pt1_step(p):
    """The block+pt1 step on rotating-frame amplitudes, one Cayley factor
    per distinct (nu, Omega)."""
    tol = 1e-9 * max(p.a, 1.0)
    factors = {}

    def step(amps, pulse):
        key = (pulse.nu, pulse.Omega)
        part = partition_blocks(pulse, p)
        eps, c, s, a = pert._pt1_dressing(part, pulse.Omega, tol)
        if key not in factors:
            factors[key] = pert._cayley_factor(a)
        out = pert._apply_pt1(
            pert._rotate(part, c, s, amps), eps, pulse.duration, a, lambda _: factors[key]
        )
        return pert._rotate(part, c, -s, out)

    return step


STEP_CASES = (
    [("dense", L) for L in range(3, 10)]
    + [("pt1", L) for L in range(3, 12)]
    + [("cheap", L) for L in (16, 18)]
)


@pytest.mark.parametrize("kind, L", STEP_CASES)
def test_rotating_step_equals_full_array_transforms(kind, L):
    # rotating_step frames every entry with the driver's L + 1 frame
    # levels; full_array_step exponentiates total spin-z for every basis
    # state.  The exact and block+pt1 routes go through rotating_step, so
    # their final states must equal the adapter's bit for bit.  The cheap
    # step leaves a random state's rotating-frame amplitudes as they are,
    # past the 2^14 entries where numpy elides temporaries.
    p = ChainParams(L=L, a=100.0, J=1.945)
    prot = build_entanglement_protocol(p, 0.118)
    if kind == "dense":
        got = run_protocol(ground_state(L), prot)
        want = propagate_protocol(ground_state(L), prot, full_array_step(_bare_dense_step(p)))
    elif kind == "pt1":
        got = run_protocol_pert(ground_state(L), prot, "block+pt1")
        want = propagate_protocol(ground_state(L), prot, full_array_step(_bare_pt1_step(p)))
    else:
        walk = replace(prot, pulses=prot.pulses[:3])
        psi = _random_state(L, np.random.default_rng(L))
        got = propagate_protocol(psi, walk, rotating_step(lambda amps, _: amps))
        want = propagate_protocol(psi, walk, full_array_step(lambda amps, _: amps))
    assert got.amplitudes.tobytes() == want.amplitudes.tobytes()


def test_norm_guard_rejects_nan_amplitudes():
    # abs(nan - 1) > tol is False, so the guard has to be written to fail
    # on NaN.
    p = ChainParams(L=3, a=1.0)
    pu = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=0.0)

    @rotating_step
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
    keys = [(pu.nu, pu.Omega) for pu in prot.pulses]
    last_use = {key: i for i, key in enumerate(keys)}
    refs = {}  # (nu, Omega) -> weakref to its propagator
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
    from isingpulse.protocol import Protocol

    built = _count_builds(monkeypatch)
    p = ChainParams(L=5, omega0=0.0, a=100.0, J=1.945)
    walk = build_entanglement_protocol(p, 0.118).pulses
    assert walk[5].nu.hex() == walk[2].nu.hex()
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

    @rotating_step
    def step(amps, pulse):
        key = (pulse.nu, pulse.Omega)
        if key not in cache:
            h = RotFrameHam(p, pulse.nu, pulse.Omega).dense()
            cache[key] = scipy.linalg.eigh(h, check_finite=False, driver="evr")
        w, v = cache[key]
        return v @ (np.exp(-1j * w * pulse.duration) * (v.conj().T @ amps))

    return step


def _expm_reference(psi, prot):
    amps = psi.amplitudes
    for pu in prot.pulses:
        h = RotFrameHam(prot.params, pu.nu, pu.Omega).dense()
        rot = to_rotating(amps, pu.nu, pu.t_start)
        amps = from_rotating(scipy.linalg.expm(-1j * h * pu.duration) @ rot, pu.nu, pu.t_end)
    return amps


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
