import math

import numpy as np
import pytest

from isingpulse import (
    BasisState,
    ChainParams,
    ProtocolError,
    Pulse,
    build_entanglement_protocol,
    epsilon_param,
    flip,
    format_protocol_table,
    spectator_detunings,
    two_pi_k_omega,
    validate_selective,
)
from isingpulse.protocol import FAKE_WINDOW, Protocol

from chain_helpers import (
    fake_transitions,
    paper_transition,
    protocol_target_index,
    resonance_frequency,
    single_flip_deltas,
)

P6 = ChainParams(L=6, omega0=0.0, a=100.0, J=1.0)


def test_resonance_matches_single_flip_deltas():
    p = ChainParams(L=6, omega0=0.3, a=7.0, J=0.9)
    for i in range(1 << 6):
        s = BasisState(i, 6)
        deltas = dict(single_flip_deltas(s, p))
        for k in range(6):
            assert resonance_frequency(s, k, p) == pytest.approx(deltas[k], abs=1e-12)


def test_border_vs_bulk_resonance_differs_by_J():
    # Flip of the end qubit vs a bulk qubit with matching (ground) neighbours
    # differs by J in the Ising shift: border w+J, bulk w+2J.
    p = ChainParams(L=5, omega0=0.0, a=10.0, J=0.8)
    zero = BasisState(0, 5)
    border = resonance_frequency(zero, 0, p) - p.omega0
    bulk = resonance_frequency(zero, 2, p) - p.omega(2)
    assert bulk - border == pytest.approx(p.J, abs=1e-12)


def test_protocol_pulse_count_and_durations():
    Omega = 0.118
    prot = build_entanglement_protocol(P6, Omega)
    assert len(prot.pulses) == 2 * 6 - 2
    assert prot.pulses[0].duration == pytest.approx(math.pi / (2 * Omega))
    for pu in prot.pulses[1:]:
        assert pu.duration == pytest.approx(math.pi / Omega)
    assert prot.total_time == pytest.approx(
        math.pi / (2 * Omega) + (2 * 6 - 3) * math.pi / Omega
    )


def test_protocol_start_times_contiguous():
    prot = build_entanglement_protocol(P6, 0.2)
    t = 0.0
    for pu in prot.pulses:
        assert pu.t_start == pytest.approx(t, abs=1e-12)
        t += pu.duration


def test_protocol_branch_walk():
    # Excitation walk: {0}, {0,1}, {0,1,2}, {0,2}, {0,2,3}, {0,3}, ...
    prot = build_entanglement_protocol(P6, 0.118)
    seen = []
    branch = BasisState(0, 6)
    for pu in prot.pulses:
        src, k = pu.target
        assert src == branch
        branch = flip(branch, k)
        seen.append(branch.index)
    expected = [
        0b000001, 0b000011, 0b000111, 0b000101, 0b001101, 0b001001,
        0b011001, 0b010001, 0b110001, 0b100001,
    ]
    assert seen == expected
    assert protocol_target_index(prot) == 0b100001  # qubits 0 and 5 excited


def test_protocol_frequencies_are_exact_resonances():
    prot = build_entanglement_protocol(P6, 0.118)
    for pu in prot.pulses:
        src, k = pu.target
        assert pu.nu == resonance_frequency(src, k, P6)


@pytest.mark.parametrize("L", range(3, 15))
@pytest.mark.parametrize("mirror", [False, True], ids=["walk", "mirror"])
def test_pulses_of_one_transition_carry_one_nu_to_the_bit(L, mirror):
    # On paper a pulse's frequency depends only on the flipped qubit and
    # how many of its neighbours are excited, so its repeats must not differ
    # in the last bits, even at the a/4 and a/3 collisions and past a/2;
    # the walk then has L + 1 distinct drives, one per transition.
    for J in (0.8, 1.945, 24.9, 33.4, 50.1):
        p = ChainParams(L=L, omega0=100.0 if mirror else 0.0, a=100.0, J=J)
        prot = build_entanglement_protocol(p, 0.118, mirror=mirror)
        nus = {}
        for pu in prot.pulses:
            nus.setdefault(paper_transition(pu), set()).add(pu.nu.hex())
        assert all(len(bits) == 1 for bits in nus.values()), f"J={J}: {nus}"
        assert len(nus) == len({(pu.nu, pu.Omega) for pu in prot.pulses}) == L + 1


def test_protocol_requires_three_qubits():
    with pytest.raises(ProtocolError):
        build_entanglement_protocol(ChainParams(L=2, a=1.0), 0.1)
    with pytest.raises(ValueError):
        build_entanglement_protocol(P6, 0.0)


def test_spectator_detunings_pattern():
    # All non-first pulses detune the parked branch by 2J, except the single
    # pulse whose target has both neighbours excited (4J).
    for L in (3, 4, 6, 8):
        p = ChainParams(L=L, omega0=0.0, a=100.0, J=1.3)
        prot = build_entanglement_protocol(p, 0.1)
        ds = spectator_detunings(prot)
        assert len(ds) == 2 * L - 3
        assert sorted(ds)[-1] == pytest.approx(4 * p.J, abs=1e-9)
        assert sum(1 for d in ds if abs(d - 4 * p.J) < 1e-9) == 1
        assert sum(1 for d in ds if abs(d - 2 * p.J) < 1e-9) == 2 * L - 4
        # under this walk orientation the 4J pulse is the fourth one
        assert ds[2] == pytest.approx(4 * p.J, abs=1e-9)


def test_mirror_protocol_walks_other_way():
    prot = build_entanglement_protocol(P6, 0.118, mirror=True)
    assert len(prot.pulses) == 10
    src0, k0 = prot.pulses[0].target
    assert src0.index == 0 and k0 == 5
    assert protocol_target_index(prot) == 0b100001


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["nu", "Omega", "t_start", "duration"])
def test_pulse_rejects_non_finite_fields(field, value):
    # Such a pulse used to run: Omega = nan and nu = inf gave a NaN state on
    # both pert routes, duration = inf on all three, and nu = nan a
    # misleading FrameError on the pert routes.
    fields = dict(nu=1.0, Omega=0.1, duration=1.0, t_start=0.0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^pulse {field} must be finite"):
        Pulse(**fields)


def test_protocol_rejects_non_contiguous_pulses():
    pu1 = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=0.0)
    pu2 = Pulse(nu=1.0, Omega=0.1, duration=1.0, t_start=1.5)
    with pytest.raises(ProtocolError):
        Protocol(pulses=(pu1, pu2), params=P6)


# ------------------------------------------------------ 2*pi*k condition


def test_two_pi_k_omega_values():
    assert two_pi_k_omega(1.0, 2) == pytest.approx(2.0 / math.sqrt(15.0))
    assert two_pi_k_omega(1.0, 2) == pytest.approx(0.5164, abs=5e-5)
    assert two_pi_k_omega(1.945, 16) == pytest.approx(0.1216, abs=5e-5)
    assert two_pi_k_omega(1.945, 16) == pytest.approx(
        2 * 1.945 / math.sqrt(1023.0), rel=1e-12
    )


def test_two_pi_k_omega_monotone_and_errors():
    vals = [two_pi_k_omega(1.0, k) for k in range(1, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.04  # heads to zero
    with pytest.raises(ValueError):
        two_pi_k_omega(1.0, 0)
    with pytest.raises(ValueError):
        two_pi_k_omega(1.0, 1.5)


def test_leakage_vanishes_at_full_cycle_drive():
    # pi pulse at Delta = 2J with Omega on the full-cycle ladder: no transfer.
    J = 1.7
    for k in range(1, 9):
        Om = two_pi_k_omega(J, k)
        eps = epsilon_param(Om, 2.0 * J, math.pi / Om)
        assert eps <= 1e-12


# ------------------------------------------------------ regime validator


def test_validate_selective_reference_point_passes():
    report = validate_selective(P6, 0.118)
    assert report.ok
    assert not report.fake_hits
    assert all(c.level == "pass" for c in report.checks)


def test_validate_selective_flags_fake_transition():
    p = ChainParams(L=6, omega0=0.0, a=100.0, J=25.0)
    report = validate_selective(p, 0.118)
    assert report.fake_hits
    jf, rel = report.fake_hits[0]
    assert jf == pytest.approx(25.0)
    assert rel == pytest.approx(0.0, abs=1e-12)
    assert report.failed


def test_validate_selective_fails_on_strong_drive():
    report = validate_selective(P6, 100.0)  # Omega = a
    assert any(c.level == "fail" for c in report.checks)
    assert report.failed


def test_validate_selective_never_raises_on_degenerate_input():
    p = ChainParams(L=6, a=100.0, J=0.0)
    report = validate_selective(p, 0.1)
    assert report.failed  # Omega/J is infinite


@pytest.mark.parametrize("Omega", [0.0, -1.0, math.nan])
def test_validate_selective_rejects_a_drive_that_is_not_positive(Omega):
    with pytest.raises(ValueError, match="Rabi frequency must be positive"):
        validate_selective(P6, Omega)


def test_fake_hits_match_the_fake_transition_list():
    # The closed-form search against the full list filtered at the window:
    # every family value, on it, 1% and 2% off, just either side of the
    # window's edge and 3% off, plus random couplings, all bit for bit.
    rng = np.random.default_rng(5)
    offsets = [0.0, *(s * e for s in (1, -1)
                      for e in (0.01, 0.02, 0.02 - 1e-10, 0.02 + 1e-10, 0.03))]
    for L in (3, 4, 5, 6, 9, 17, 39, 100, 1000):
        for a in (1.0, 3.7, 100.0):
            fakes = np.array(fake_transitions(ChainParams(L=L, a=a)))
            on = {a * (k / d) for d in (1, 2, 3, 4) for k in range(1, 60)}
            js = [jf * (1.0 + o) for jf in on for o in offsets]
            js += [0.0, *(a * rng.uniform(0.0, min(L, 60)) for _ in range(50))]
            for J in js:
                rel = np.abs(J - fakes) / fakes
                near = rel < FAKE_WINDOW
                want = tuple(zip(fakes[near].tolist(), rel[near].tolist()))
                assert validate_selective(
                    ChainParams(L=L, a=a, J=J), 0.118).fake_hits == want, (L, a, J)
    # A coupling so far past the families that d*J/a overflows.
    assert validate_selective(ChainParams(L=6, a=1e-300, J=1e300), 0.1).fake_hits == ()


# ------------------------------------------------------ table dump


def test_protocol_table_roundtrip_fields():
    prot = build_entanglement_protocol(P6, 0.118)
    text = format_protocol_table(prot)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + len(prot.pulses)
    row0 = lines[1].split()
    assert int(row0[0]) == 0
    assert float(row0[1]) == prot.pulses[0].nu
    assert float(row0[2]) == 0.118
    assert row0[5] == "000000"
    assert row0[6] == "0"
    row3 = lines[4].split()
    assert row3[5] == "111000"  # qubits 0,1,2 excited, qubit 0 leftmost
    assert row3[6] == "1"
