"""Independent references for the benchmark's correctness checks.

The dense oracle rebuilds each pulse's rotating-frame Hamiltonian from the
model formula

    E0(s) = - sum_k w_k sz_k(s) - 2 J sum_k sz_k(s) sz_{k+1}(s),

with w_k = omega0 + a*k replaced by w_k - nu during a pulse and -Omega/2 on
every single-spin flip, and propagates with ``scipy.linalg.expm`` and the
frame phases exp(-+ i nu t Sz).  It takes pulses as plain numbers and uses
none of the program's Hamiltonian, energy-table or propagator code, so a
fault there cannot cancel out of the comparison.

At 1024 states ``expm`` costs 3 s per pulse on one core (its scaling step
follows the norm ~5e4 of H*tau), 54 s for one walk.  There ``eigh_step``
diagonalizes the same matrix with ``numpy.linalg.eigh`` instead (LAPACK
syevd, not the routine behind the program's scipy call), in 0.4 s per
pulse; the tests hold the two steps to each other.

The closed form is the per-pulse error of a pi pulse on a pair detuned by
2J, the source of the paper's linear-in-L fidelity law.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg


def spin_z(L: int) -> np.ndarray:
    """(2^L, L) table of sz_k: +1/2 for bit k = 0, -1/2 for bit k = 1."""
    idx = np.arange(1 << L)
    return 0.5 - ((idx[:, None] >> np.arange(L)) & 1)


def energies(L: int, w: np.ndarray, J: float) -> np.ndarray:
    """E0(s) of every basis state for site frequencies w."""
    sz = spin_z(L)
    return -(sz @ w) - 2.0 * J * np.sum(sz[:, :-1] * sz[:, 1:], axis=1)


def site_frequencies(L: int, omega0: float, a: float) -> np.ndarray:
    return omega0 + a * np.arange(L)


def pulse_hamiltonian(L, omega0, a, J, nu, Omega) -> np.ndarray:
    """Dense rotating-frame Hamiltonian of one pulse with phase 0."""
    n = 1 << L
    h = np.diag(energies(L, site_frequencies(L, omega0, a) - nu, J))
    idx = np.arange(n)
    for k in range(L):
        h[idx ^ (1 << k), idx] = -0.5 * Omega
    return h


def expm_step(h, tau, psi):
    return scipy.linalg.expm(-1j * tau * h) @ psi


def eigh_step(h, tau, psi):
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * tau * w) * (v.T @ psi))


def final_state(L, omega0, a, J, pulses, step=expm_step) -> np.ndarray:
    """Lab-frame amplitudes after ``pulses`` applied to |0...0> at t = 0.

    ``pulses`` is a sequence of (nu, Omega, phi, t_start, duration);
    ``step(h, tau, psi)`` applies exp(-i h tau).
    """
    sz_total = spin_z(L).sum(axis=1)
    psi = np.zeros(1 << L, dtype=complex)
    psi[0] = 1.0
    for nu, Omega, phi, t_start, tau in pulses:
        if phi != 0.0:
            raise ValueError("the oracle covers phase-0 pulses only")
        h = pulse_hamiltonian(L, omega0, a, J, nu, Omega)
        psi = psi * np.exp(-1j * nu * t_start * sz_total)
        psi = step(h, tau, psi)
        psi = psi * np.exp(1j * nu * (t_start + tau) * sz_total)
    return psi


def transition_energy(L, omega0, a, J, index: int, k: int) -> float:
    """|E0(s with qubit k flipped) - E0(s)| for basis index s."""
    e = energies(L, site_frequencies(L, omega0, a), J)
    return float(abs(e[index ^ (1 << k)] - e[index]))


def pulse_error(Omega: float, J: float) -> float:
    """Population a pi pulse (tau = pi/Omega) moves on a pair detuned by 2J:
    Omega^2/(Omega^2+4J^2) * sin^2(tau*sqrt(Omega^2+4J^2)/2)."""
    lam2 = Omega * Omega + 4.0 * J * J
    tau = math.pi / Omega
    return Omega * Omega / lam2 * math.sin(0.5 * tau * math.sqrt(lam2)) ** 2


def worst_case_error(Omega: float, J: float) -> float:
    """Omega^2/(4 J^2), the envelope of :func:`pulse_error`."""
    return Omega * Omega / (4.0 * J * J)


def least_squares_slope(xs, ys) -> float:
    xs = [float(x) for x in xs]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    return sxy / sxx


# ------------------------------------------------------------------ checks
#
# Each returns (ok, measured value); the value is what the verdict line
# prints, so a reader sees the margin as well as the outcome.


def check_amplitudes(psi_program, psi_oracle, tol=1e-9):
    """Program amplitudes equal the oracle's, phases included."""
    err = float(np.max(np.abs(np.asarray(psi_program) - psi_oracle)))
    return err <= tol, err


def check_overlap(f_program, psi_ideal, psi_oracle, tol):
    """A reported fidelity equals |<ideal|psi_oracle>|^2."""
    f_oracle = float(abs(np.vdot(psi_ideal, psi_oracle)) ** 2)
    err = abs(f_program - f_oracle)
    return err <= tol, err


def check_support_bound(f, psi_oracle, target_index):
    """0 <= F <= (|c_0| + |c_t|)^2 / 2: the ideal state has weight 1/sqrt(2)
    on |0...0> and on the target string, so no other weight can overlap it."""
    c0 = abs(psi_oracle[0])
    ct = abs(psi_oracle[target_index])
    excess = f - 0.5 * (c0 + ct) ** 2
    return 0.0 <= f and excess <= 1e-12, excess


def check_unit_interval(f):
    return 0.0 <= f <= 1.0, f


def check_pt_adequacy(f_exact, f_pert, tol=1e-5):
    gap = abs(f_exact - f_pert)
    return gap <= tol, gap


def check_linear_law(slope, Omega, J, frac):
    """The fidelity loss per qubit is the per-pulse error eps, to within
    ``frac`` of the worst case Omega^2/4J^2 (eps itself vanishes on the
    full-cycle ladder, so it cannot scale the tolerance)."""
    dev = abs(slope + pulse_error(Omega, J)) / worst_case_error(Omega, J)
    return dev <= frac, dev
