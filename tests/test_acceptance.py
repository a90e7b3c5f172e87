"""Acceptance suite: every contract criterion as one test, each printing a
PASS/FAIL line with the measured numbers (run pytest with -s or -rA to see
the lines for passing criteria too).

Criterion 4 runs on the mirror walk, which starts at qubit L-1.  Only that
orientation reaches the J = a/4 family: its one 4J pulse flips qubit L-2
back and collides with qubit L-3 of the parked |0...0> branch.  The default
walk from qubit 0 puts its 4J pulse next to the border qubit 0, so there the
collision moves to a/3; its active families are a/3, a/2, 2a/3 and a, and
the test checks that its J = a/4 window stays clean.
"""

import math

import numpy as np
import pytest

from isingpulse import (
    BasisState,
    ChainParams,
    build_entanglement_protocol,
    build_ideal_state,
    chaos_border,
    dynamical_fidelity,
    eta_param,
    ground_state,
    propagate_pulse,
    protocol_fidelity,
    resonance_frequency,
    run_protocol,
    run_protocol_pert,
    two_pi_k_omega,
    validate_selective,
)
from isingpulse.cli import main as cli_main
from isingpulse.hamiltonian import rotating_energy_table
from isingpulse.pert import ORDER_BLOCK_PT1, _block_u
from isingpulse.protocol import Pulse

A_REF = 100.0
OMEGA_REF = 0.118


def _report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _one_minus_f(L, a, J, Omega, omega0=0.0, mirror=False):
    rep = protocol_fidelity(
        ChainParams(L=L, omega0=omega0, a=a, J=J), Omega, mirror=mirror
    )
    return 1.0 - rep.f_exact


def _worst_target_detuning(L, a, J, Omega, omega0=0.0, mirror=False):
    """Largest rotating-frame gap |e_rot[tgt] - e_rot[src]| between a walk
    pulse and its own target transition; 0 when every pulse is resonant."""
    p = ChainParams(L=L, omega0=omega0, a=a, J=J)
    worst = 0.0
    for pu in build_entanglement_protocol(p, Omega, mirror=mirror).pulses:
        src, k = pu.target
        e_rot = rotating_energy_table(p, pu.nu)
        worst = max(worst, abs(e_rot[src.index ^ (1 << k)] - e_rot[src.index]))
    return worst


# ---------------------------------------------------------------- 1


def test_criterion_1_unitarity_and_determinism(tmp_path):
    """50 random selective parameter sets: per-pulse norm to 1e-10, and a
    repeated sweep gives a bit-identical CSV."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        L = int(rng.integers(3, 9))
        a = float(rng.uniform(50.0, 200.0))
        J = a * float(rng.uniform(0.01, 0.2))
        Omega = J * float(rng.uniform(0.05, 0.2))
        p = ChainParams(L=L, omega0=0.0, a=a, J=J)
        prot = build_entanglement_protocol(p, Omega)
        psi = ground_state(L)
        for pu in prot.pulses:
            psi = propagate_pulse(psi, pu, p)
            worst = max(worst, abs(psi.norm() - 1.0))
    norm_ok = worst <= 1e-10

    args = [
        "sweep", "--param", "J", "--from", "0.6", "--to", "1.8", "--steps", "6",
        "--L", "5", "--a", "100", "--omega", "0.118", "--propagator", "both",
    ]
    f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    same = f1.read_bytes() == f2.read_bytes()

    ok = norm_ok and same
    _report(1, ok, f"worst norm drift {worst:.2e}, identical CSV: {same}")
    assert norm_ok, f"norm drift {worst} exceeds 1e-10"
    assert same, "repeated sweep output differs"


# ---------------------------------------------------------------- 2


def test_criterion_2_two_level_oracle():
    """Embedded resonant transition in an L=3 chain matches the two-level
    closed forms to 1e-8 (a/Omega = 1e6 here, comfortably >= 500)."""
    p = ChainParams(L=3, omega0=0.0, a=400.0, J=0.2)
    Omega = 4e-4
    assert p.a / Omega >= 500.0
    worst = 0.0
    zero = BasisState(0, 3)
    for frac in (0.5, 1.0):  # pi/2 and pi pulses
        nu = resonance_frequency(zero, 1, p)
        tau = frac * math.pi / Omega
        pu = Pulse(nu=nu, Omega=Omega, duration=tau, t_start=0.0)
        out = propagate_pulse(ground_state(3), pu, p)
        e_rot = rotating_energy_table(p, nu)
        # closed form on full lab amplitudes, pulse starting at t = 0
        d = e_rot[0b010] - e_rot[0]
        u11, _, u21, _ = _block_u(Omega, d, tau, e_rot[0], e_rot[0b010])
        # rotating-frame energies already carry nu*Sz; convert back to lab
        lab_m = u11 * np.exp(1j * nu * tau * 1.5)
        lab_p = u21 * np.exp(1j * nu * tau * 0.5)
        worst = max(
            worst,
            abs(out.amplitudes[0] - lab_m),
            abs(out.amplitudes[0b010] - lab_p),
        )
    ok = worst <= 1e-8
    _report(2, ok, f"max amplitude deviation {worst:.2e} (tol 1e-8)")
    assert ok, f"two-level closed form missed by {worst}"


# ---------------------------------------------------------------- 3


def test_criterion_3_exact_vs_perturbative_agreement():
    """100 coupling values in [0.3, 20] at the reference point: the two
    propagators agree within 10*L*eta + 5% of the exact infidelity."""
    L = 6
    eta = eta_param(OMEGA_REF, A_REF)
    js = [
        j for j in np.linspace(0.3, 20.0, 100)
        if not validate_selective(
            ChainParams(L=L, a=A_REF, J=float(j)), OMEGA_REF).fake_hits
    ]
    assert len(js) == 100  # no fake window intersects this range
    worst = 0.0
    for j in js:
        p = ChainParams(L=L, omega0=0.0, a=A_REF, J=float(j))
        prot = build_entanglement_protocol(p, OMEGA_REF)
        ideal = build_ideal_state(prot)
        f_e = dynamical_fidelity(ideal, run_protocol(ground_state(L), prot))
        f_p = dynamical_fidelity(
            ideal, run_protocol_pert(ground_state(L), prot, ORDER_BLOCK_PT1)
        )
        envelope = 10.0 * L * eta + 0.05 * (1.0 - f_e)
        worst = max(worst, abs((1.0 - f_e) - (1.0 - f_p)) / envelope)
    ok = worst <= 1.0
    _report(3, ok, f"worst |dF| / envelope = {worst:.3f} over {len(js)} points")
    assert ok, f"agreement envelope exceeded: ratio {worst}"


# ---------------------------------------------------------------- 4


def test_criterion_4_fake_transition_peaks():
    """Fidelity collapse inside the +-2% windows at J = a/4 = 25 and
    J = a/2 = 50, clean midpoints in between, on the mirror walk.

    The mirror walk turns qubit 0 on next to an excited neighbour, a
    transition of energy omega0 - J, so it runs at omega0 = a where every
    intended transition energy is positive; fidelities do not depend on
    omega0 otherwise.  Each pulse of every walk run here is checked to be
    resonant with its own target.  The default walk, whose 4J pulse sits
    next to the border qubit 0, must stay clean inside the J = 25 window.
    """
    L = 6
    windows = {jc: np.linspace(jc * 0.98, jc * 1.02, 41) for jc in (25.0, 50.0)}
    mid_js = (29.17, 37.5, 41.67)
    mirror_js = [*windows[25.0], *windows[50.0], *mid_js]
    mirror_run = dict(omega0=A_REF, mirror=True)

    detuning = max(
        [_worst_target_detuning(L, A_REF, float(j), OMEGA_REF, **mirror_run)
         for j in mirror_js]
        + [_worst_target_detuning(L, A_REF, float(j), OMEGA_REF)
           for j in windows[25.0]]
    )
    resonant = detuning <= 1e-9 * A_REF

    maxima = {
        jc: max(_one_minus_f(L, A_REF, float(j), OMEGA_REF, **mirror_run) for j in js)
        for jc, js in windows.items()
    }
    mids = {jm: _one_minus_f(L, A_REF, jm, OMEGA_REF, **mirror_run) for jm in mid_js}
    default_25 = max(_one_minus_f(L, A_REF, float(j), OMEGA_REF) for j in windows[25.0])
    ok = (
        resonant
        and all(v > 0.5 for v in maxima.values())
        and all(v < 0.05 for v in mids.values())
        and default_25 < 0.05
    )
    _report(
        4,
        ok,
        "mirror walk: window maxima "
        + ", ".join(f"J~{k:g}: {v:.4f}" for k, v in maxima.items())
        + "; midpoints "
        + ", ".join(f"J={k:g}: {v:.5f}" for k, v in mids.items())
        + f"; default walk J~25 max {default_25:.2e}"
        + f"; worst pulse detuning {detuning:.1e}",
    )
    assert resonant, (
        f"a walk pulse misses its own target transition by {detuning}; "
        "an intended transition energy is not positive in this gauge"
    )
    assert all(v < 0.05 for v in mids.values()), f"midpoints not clean: {mids}"
    assert maxima[25.0] > 0.5, f"no collapse near J=25: {maxima[25.0]}"
    assert maxima[50.0] > 0.5, f"no collapse near J=50: {maxima[50.0]}"
    assert default_25 < 0.05, (
        f"the default walk collapses inside the J=25 window (max 1-F = "
        f"{default_25:.2e}); its active resonance families are a/3, a/2, "
        "2a/3 and a, and the a/4 family should not reach it"
    )


# ---------------------------------------------------------------- 5


def test_criterion_5_full_cycle_minima_locations():
    """Infidelity minima of a drive-strength scan sit within 1% of the
    full-cycle ladder 2J/sqrt(4k^2-1) for k = 2..6."""
    L, J = 6, 1.0
    omegas = np.arange(0.15, 0.60, 0.001)
    vals = np.array([_one_minus_f(L, A_REF, J, float(o)) for o in omegas])
    minima = [
        float(omegas[i])
        for i in range(1, len(omegas) - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
    ]
    rels = {}
    for k in range(2, 7):
        target = two_pi_k_omega(J, k)
        nearest = min(minima, key=lambda m: abs(m - target))
        rels[k] = abs(nearest - target) / target
    ok = all(r < 0.01 for r in rels.values())
    _report(5, ok, "rel offsets " + ", ".join(f"k={k}: {r:.4%}" for k, r in rels.items()))
    assert ok, f"minima off the ladder: {rels}"


# ---------------------------------------------------------------- 6 & 7


@pytest.fixture(scope="module")
def slope_table():
    ls = list(range(4, 11))
    table = {}
    for J, Omega in ((1.945, OMEGA_REF), (5.01, OMEGA_REF), (9.99, OMEGA_REF),
                     (1.945, 0.1216)):
        fs = [1.0 - _one_minus_f(L, A_REF, J, Omega) for L in ls]
        A = np.vstack([np.array(ls, dtype=float), np.ones(len(ls))]).T
        (slope, _), *_ = np.linalg.lstsq(A, np.array(fs), rcond=None)
        table[(J, Omega)] = float(slope)
    return table


def test_criterion_6_slope_law(slope_table):
    """Fitted slope of F vs L matches -Omega^2/(4J^2): within 25% for
    J = 5.01 and 9.99, within a factor 2 for J = 1.945."""
    ratios = {}
    for J in (1.945, 5.01, 9.99):
        m_th = -(OMEGA_REF**2) / (4.0 * J * J)
        ratios[J] = slope_table[(J, OMEGA_REF)] / m_th
    ok = (
        abs(ratios[5.01] - 1.0) <= 0.25
        and abs(ratios[9.99] - 1.0) <= 0.25
        and 0.5 <= ratios[1.945] <= 2.0
    )
    _report(6, ok, "fitted/theory " + ", ".join(f"J={j}: {r:.3f}" for j, r in ratios.items()))
    assert abs(ratios[5.01] - 1.0) <= 0.25, ratios
    assert abs(ratios[9.99] - 1.0) <= 0.25, ratios
    assert 0.5 <= ratios[1.945] <= 2.0, ratios


def test_criterion_7_full_cycle_drive_improvement(slope_table):
    """Moving the drive from 0.118 to the k=16 full-cycle value 0.1216
    shrinks the fitted |slope| by a factor in [30, 300]."""
    gain = abs(slope_table[(1.945, OMEGA_REF)] / slope_table[(1.945, 0.1216)])
    ok = 30.0 <= gain <= 300.0
    _report(7, ok, f"|slope| improvement factor {gain:.1f}")
    assert ok, f"improvement factor {gain} outside [30, 300]"


# ---------------------------------------------------------------- 8


def test_criterion_8_chaos_absence():
    """Every parameter set used above sits below the chaos border, and the
    brute-force connectivity and spread match the closed forms exactly."""
    sets = [
        (6, A_REF, j, OMEGA_REF) for j in (0.3, 1.0, 1.945, 5.01, 9.99, 20.0)
    ]
    sets += [(L, A_REF, 1.945, 0.1216) for L in range(4, 11)]
    sets += [(3, 400.0, 0.2, 4e-4), (6, 200.0, 1.0, OMEGA_REF),
             (6, 400.0, 1.0, OMEGA_REF)]
    below = all(
        chaos_border(ChainParams(L=L, a=a, J=J)).omega_cr_approx > Om
        and chaos_border(ChainParams(L=L, a=a, J=J)).omega_cr > Om
        for (L, a, J, Om) in sets
    )

    brute_ok = True
    for (L, a, J, _) in sets:
        if L > 8:
            continue
        p = ChainParams(L=L, omega0=0.0, a=a, J=J)
        e_rot = rotating_energy_table(p, p.omega0)
        spread = 0.0
        for i in range(1 << L):
            coupled = [i ^ (1 << k) for k in range(L)]
            if len(set(coupled)) != L:
                brute_ok = False
            spread = max(spread, max(abs(e_rot[c] - e_rot[i]) for c in coupled))
        if abs(spread - (a * (L - 1) + J)) > 1e-9 * (a * (L - 1) + J):
            brute_ok = False

    ok = below and brute_ok
    _report(8, ok, f"all {len(sets)} sets below border: {below}; "
                   f"brute-force spread/connectivity exact: {brute_ok}")
    assert below
    assert brute_ok


# ---------------------------------------------------------------- 9


def test_criterion_9_frequency_step_asymptote():
    """Doubling the frequency step from 200*J to 400*J changes the
    infidelity by less than 5% relative: deep in the wide-step plateau."""
    v1 = _one_minus_f(6, 200.0, 1.0, OMEGA_REF)
    v2 = _one_minus_f(6, 400.0, 1.0, OMEGA_REF)
    rel = abs(v1 - v2) / v1
    ok = rel < 0.05
    _report(9, ok, f"1-F changes by {rel:.3%} between a=200 and a=400")
    assert ok, f"plateau violated: {rel}"
