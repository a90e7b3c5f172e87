"""Perturbative propagation: two-level blocks plus optional dressing.

Per pulse the basis is partitioned into pairs connected by a resonant or
near-resonant single-flip transition (rotating-frame detuning within a
threshold, default a/2) and leftover singletons.  Each pair evolves by the
closed-form two-level amplitudes

    c_m(tau) = c_m(0) [cos(lt/2) + i (D/l) sin(lt/2)] e^{-i D tau/2 - i E_m tau}
    c_p(tau) = c_m(0) [i (Omega/l) sin(lt/2)]        e^{+i D tau/2 - i E_p tau}

with l = sqrt(Omega^2 + D^2), extended to a full unitary 2x2 rotation for
nonzero initial c_p; singletons evolve by their diagonal phase.  The pulse
loop, with its clock check, frame transforms and norm guard, is the exact
propagator's: this module supplies only the per-pulse step.

The first-order mode additionally dresses each pulse with the eigenstate
corrections built from the left-over (non-resonant) coupling V:

    |q> -> |q0> + sum_{q'} <q'0|V|q0> / (e_q - e_q') |q'0>

applied as an exactly unitary Cayley factor at the pulse boundaries, and
shifts the block eigenvalues by the level corrections sum |V_qq'|^2/(e_q -
e_q') that the same matrix elements imply.  This captures both the leaked
population and the differential level shifts of the parked branches.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .basis import StateVector
from .errors import PairingError
# Unused frame transforms stay imported: bench/tracing.py patches them here.
from .exact import from_rotating, propagate_protocol, to_rotating  # noqa: F401
from .hamiltonian import ChainParams, rotating_energy_table
from .protocol import Protocol, Pulse

log = logging.getLogger(__name__)

ORDER_BLOCK = "block"
ORDER_BLOCK_PT1 = "block+pt1"


def default_threshold(p: ChainParams) -> float:
    """Pairing threshold |Delta| <= a/2: half the inter-qubit frequency step
    separates near-resonant (~J) from non-resonant (~a) transitions."""
    return 0.5 * p.a


def epsilon_param(Omega: float, Delta: float, tau: float) -> float:
    """Transition probability of one pulse on a two-level pair.

    (Omega^2 / (Omega^2 + Delta^2)) * sin^2(tau/2 * sqrt(Omega^2 + Delta^2));
    vanishes at the full-cycle drive strengths 2J/sqrt(4k^2-1) for Delta=2J.
    """
    if tau < 0:
        raise ValueError(f"pulse length must be >= 0, got {tau}")
    lam2 = Omega * Omega + Delta * Delta
    if lam2 == 0.0:
        return 0.0
    return (Omega * Omega / lam2) * np.sin(0.5 * tau * np.sqrt(lam2)) ** 2


def eta_param(Omega: float, a: float) -> float:
    """Non-resonant transition probability Omega^2 / (4 a^2)."""
    if not a > 0:
        raise ValueError(f"frequency step a must be positive, got {a}")
    return Omega * Omega / (4.0 * a * a)


def _block_u(Omega, Delta, tau, e_m, e_p):
    """Elementwise 2x2 unitaries for arrays of blocks (lab or rotating,
    depending on which energies are passed in).  Returns (u11, u12, u21, u22).
    """
    Delta = np.asarray(Delta, dtype=float)
    lam = np.hypot(Omega, Delta)
    theta = 0.5 * lam * tau
    cos = np.cos(theta)
    sin = np.sin(theta)
    # lam -> 0 limits: sin(theta)*D/lam -> D*tau/2 = 0, same for Omega term.
    safe = np.where(lam > 0.0, lam, 1.0)
    dl = np.where(lam > 0.0, Delta / safe, 0.0)
    ol = np.where(lam > 0.0, Omega / safe, 0.0)
    ph_m = np.exp(-0.5j * Delta * tau - 1j * np.asarray(e_m) * tau)
    ph_p = np.exp(+0.5j * Delta * tau - 1j * np.asarray(e_p) * tau)
    u11 = (cos + 1j * dl * sin) * ph_m
    u12 = (1j * ol * sin) * ph_m
    u21 = (1j * ol * sin) * ph_p
    u22 = (cos - 1j * dl * sin) * ph_p
    return u11, u12, u21, u22


@dataclass(frozen=True)
class BlockPartition:
    """Partition of the basis into two-level pairs and singletons.

    Array view: ``m_idx``/``p_idx``/``delta`` describe the pairs,
    ``singletons`` the leftover states.  ``n_conflicts`` counts states whose
    closest in-threshold partner ended up paired elsewhere (resolved by the
    greedy matching; a strict partition would have refused them).
    """

    L: int
    m_idx: np.ndarray
    p_idx: np.ndarray
    delta: np.ndarray
    singletons: np.ndarray
    e_rot: np.ndarray
    threshold: float
    n_conflicts: int


def partition_blocks(
    pulse: Pulse,
    p: ChainParams,
    threshold: float | None = None,
    strict: bool = False,
) -> BlockPartition:
    """Pair every basis state with its closest single-flip partner.

    Candidate pairs are the single-flip pairs whose rotating-frame detuning
    has magnitude at most ``threshold``; they are matched greedily in order
    of increasing |detuning|, so in the selective regime each state simply
    gets its unique near-resonant partner.  With ``strict`` a state whose
    closest candidate is taken by a better match raises :class:`PairingError`
    instead of falling through to its next candidate or a singleton.
    """
    if threshold is None:
        threshold = default_threshold(p)
    L, n = p.L, 1 << p.L
    idx = np.arange(n)
    e_rot = rotating_energy_table(p, pulse.nu)

    pair_m, pair_p, pair_d = [], [], []
    best_abs = np.full(n, np.inf)
    for k in range(L):
        bit = 1 << k
        d_k = e_rot[idx ^ bit] - e_rot[idx]
        np.minimum(best_abs, np.abs(d_k), out=best_abs)
        lo = idx[(idx & bit) == 0]
        d_lo = d_k[lo]
        keep = np.abs(d_lo) <= threshold
        pair_m.append(lo[keep])
        pair_p.append(lo[keep] ^ bit)
        pair_d.append(d_lo[keep])
    cand_m = np.concatenate(pair_m)
    cand_p = np.concatenate(pair_p)
    cand_d = np.concatenate(pair_d)

    # Ascending |Delta|, ties broken by state indices for determinism.
    order = np.lexsort((cand_p, cand_m, np.abs(cand_d)))
    taken = np.zeros(n, dtype=bool)
    partner_of = np.full(n, -1, dtype=np.int64)
    sel = []
    for i in order:
        m, q = int(cand_m[i]), int(cand_p[i])
        if not taken[m] and not taken[q]:
            taken[m] = taken[q] = True
            partner_of[m], partner_of[q] = q, m
            sel.append(i)
    sel = np.array(sel, dtype=int)
    m_idx = cand_m[sel]
    p_idx = cand_p[sel]
    delta = cand_d[sel]

    # A state is "conflicted" when its closest transition was within the
    # threshold but it did not end up paired through it.
    in_thr = best_abs <= threshold
    happy = np.zeros(n, dtype=bool)
    for k in range(L):
        bit = 1 << k
        d_k = np.abs(e_rot[idx ^ bit] - e_rot[idx])
        happy |= (partner_of == (idx ^ bit)) & (d_k == best_abs)
    n_conflicts = int(np.count_nonzero(in_thr & ~happy))
    if strict and n_conflicts:
        bad = idx[in_thr & ~happy][0]
        raise PairingError(
            f"state {bad} has an in-threshold closest partner that paired "
            f"elsewhere (nu={pulse.nu}, threshold={threshold}); the two-level "
            "partition is ambiguous here"
        )

    return BlockPartition(
        L=L,
        m_idx=m_idx,
        p_idx=p_idx,
        delta=delta,
        singletons=idx[~taken],
        e_rot=e_rot,
        threshold=threshold,
        n_conflicts=n_conflicts,
    )


def _block_eigensystem(part: BlockPartition, Omega: float):
    """Analytic eigensystem of the block Hamiltonian, in basis-index slots.

    Slot m holds the lower eigenvalue of its 2x2 block (mixing angle
    phi = atan2(Omega, Delta)); singletons keep their diagonal energy.
    Returns (eps0, W) with W sparse orthogonal.
    """
    n = 1 << part.L
    eps0 = part.e_rot.copy()
    rows = [part.singletons]
    cols = [part.singletons]
    vals = [np.ones(len(part.singletons))]
    if len(part.m_idx):
        m, p, d = part.m_idx, part.p_idx, part.delta
        lam = np.hypot(Omega, d)
        mean = 0.5 * (part.e_rot[m] + part.e_rot[p])
        eps0[m] = mean - 0.5 * lam
        eps0[p] = mean + 0.5 * lam
        half = 0.5 * np.arctan2(Omega, d)
        c, s = np.cos(half), np.sin(half)
        # H2 = mean*I - (lam/2)(cos(phi) sz + sin(phi) sx); the (c, s) vector
        # carries the lower eigenvalue, (-s, c) the upper.
        rows += [m, p, m, p]
        cols += [m, m, p, p]
        vals += [c, s, -s, c]
    w = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    return eps0, w


def _nonresonant_coupling(part: BlockPartition, Omega: float):
    """Sparse matrix of the -Omega/2 flip couplings not inside any block."""
    n = 1 << part.L
    idx = np.arange(n)
    rows, cols = [], []
    for k in range(part.L):
        bit = 1 << k
        rows.append(idx ^ bit)
        cols.append(idx)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    # Mask out intra-block entries without materializing an n x n table.
    partner = np.full(n, -1, dtype=np.int64)
    partner[part.m_idx] = part.p_idx
    partner[part.p_idx] = part.m_idx
    keep = partner[cols] != rows
    rows, cols = rows[keep], cols[keep]
    vals = np.full(len(rows), -0.5 * Omega)
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _pt1_dressing(part: BlockPartition, Omega: float, degeneracy_tol: float):
    """First-order correction generator A and level-shifted eigenvalues.

    A_{q'q} = <q'|V|q> / (eps_q - eps_q'), skipping near-degenerate
    denominators; the returned eigenvalues include the level corrections
    sum_{q'} |V_{q'q}|^2 / (eps_q - eps_q') implied by the same elements.
    """
    eps0, w = _block_eigensystem(part, Omega)
    v = _nonresonant_coupling(part, Omega)
    m = (w.T @ v @ w).tocoo()
    den = eps0[m.col] - eps0[m.row]
    ok = np.abs(den) > degeneracy_tol
    n_skip = int(np.count_nonzero(~ok))
    if n_skip:
        log.warning(
            "skipped %d near-degenerate dressing terms (|den| <= %g)",
            n_skip,
            degeneracy_tol,
        )
    data = np.zeros_like(m.data)
    data[ok] = m.data[ok] / den[ok]
    a = scipy.sparse.coo_matrix((data, (m.row, m.col)), shape=m.shape)
    eps = eps0.copy()
    shift = np.zeros_like(eps0)
    np.add.at(shift, m.col[ok], m.data[ok] ** 2 / den[ok])
    eps += shift
    return eps0, eps, w, a.tocsc()


def _apply_pt1(c, eps, tau, a):
    """Cayley-unitarized dressing: S e^{-i eps tau} S^T with S ~ I + A."""
    n = c.shape[0]
    eye = scipy.sparse.identity(n, format="csc")
    lu = scipy.sparse.linalg.splu((eye - 0.5 * a).astype(np.complex128))
    # S^T c = (I + A/2)^{-1} (I - A/2) c ; (I + A/2) = (I - A/2)^T.
    cin = lu.solve((eye - 0.5 * a) @ c, trans="T")
    cmid = np.exp(-1j * eps * tau) * cin
    # S y = (I + A/2) (I - A/2)^{-1} y.
    return (eye + 0.5 * a) @ lu.solve(cmid)


def run_protocol_pert(
    psi0: StateVector,
    prot: Protocol,
    order: str = ORDER_BLOCK,
    *,
    strict: bool = False,
) -> StateVector:
    """Propagate through a protocol with the block (or block+pt1) model.

    ``order`` selects plain block evolution or the additional first-order
    dressing; both conserve the norm exactly (to solver precision).
    """
    if order not in (ORDER_BLOCK, ORDER_BLOCK_PT1):
        raise ValueError(f"unknown order {order!r}")
    p = prot.params
    degeneracy_tol = 1e-9 * max(p.a, 1.0)

    def step(amps: np.ndarray, pulse: Pulse) -> np.ndarray:
        part = partition_blocks(pulse, p, strict=strict)
        tau = pulse.duration
        if order == ORDER_BLOCK_PT1:
            _, eps, w, a = _pt1_dressing(part, pulse.Omega, degeneracy_tol)
            return w @ _apply_pt1(w.T @ amps, eps, tau, a)
        out = amps.copy()
        u11, u12, u21, u22 = _block_u(
            pulse.Omega, part.delta, tau, part.e_rot[part.m_idx], part.e_rot[part.p_idx]
        )
        cm = amps[part.m_idx]
        cp = amps[part.p_idx]
        out[part.m_idx] = u11 * cm + u12 * cp
        out[part.p_idx] = u21 * cm + u22 * cp
        s = part.singletons
        out[s] = amps[s] * np.exp(-1j * part.e_rot[s] * tau)
        return out

    return propagate_protocol(psi0, prot, step)
