"""Acceptance suite: one test per shipped criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criterion 2's distinctness clause for the spin-1/2 spectrum is
implemented verbatim but expected to fail: the high-lying pair splittings
are ~1e-16 absolute (established once with 60-digit bisection), below what
double precision can resolve, so the 1e-8-of-spread threshold is
unattainable there.  The strict xfail keeps that fact visible.
"""

import json
import math
import time

import numpy as np
import pytest

from incevolkov.cli import main
from incevolkov.constants import C_LIGHT, ELECTRON_MASS, PROTON_MASS
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.modulation import contrast, harmonic_strengths
from incevolkov.operators import build_operator, build_stack
from incevolkov.physparams import (LaserInput, PlasmaInput, WaveConfig,
                                   intensity_parameter)
from incevolkov.residual import attach_residuals
from incevolkov.spectra import solve_spectra, solve_spectrum
from incevolkov.verification import (dense_oracle_crosscheck, momentum_for_mode,
                                     pde_residual, pde_stencil, run_grid)
from reference import (build_majorana_gammas, coupling_to_mu0_ratio, dispersion,
                       pde_residual_fd, spin_interaction_matrix)

GRID_A_VALUES = (0.0, 0.5, 1.0, 5.0, 14.0, 20.0)
GRID_N_MAX = 25
N_M_REF = 0.7685453911282961

LASER = LaserInput(photon_energy_ev=1.563, intensity_w_cm2=1e8)
PLASMA = PlasmaInput(plasma_energy_ev=1.0)


def _exact_pde_passed(fam, c, mom, a):
    """The verdict of the exact spacetime check `verify` runs on one mode."""
    stencil = pde_stencil(N_M_REF)
    [rep] = pde_residual(stencil, {fam: fam.basis(stencil.z, derivatives=2)},
                         [fam], [c], [mom], [a])
    return rep.passed


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def grid_report():
    return run_grid(n_max=GRID_N_MAX, a_values=GRID_A_VALUES)


def test_criterion_01_coupling_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["params", "--photon-energy-ev", "1.563",
                 "--intensity-w-cm2", "1e8", "--plasma-energy-ev", "1.0"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    a = json.loads(out)["derived"]["coupling_a"]
    ok = code == 0 and 13.5 <= a <= 14.3 and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"a = {a:.4f} in [13.5, 14.3], params ran in {elapsed:.3f}s")
    assert ok


def test_criterion_02_cardinality_and_realness():
    t0 = time.perf_counter()
    T_d = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0)
    T_k = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 20), 14.0)
    dec_d = solve_spectrum(T_d)
    dec_k = solve_spectrum(T_k)
    # realness asserted inside the dense cross-check (raises above 1e-10)
    disc_d, = dense_oracle_crosscheck(T_d, [dec_d.etas])
    disc_k, = dense_oracle_crosscheck(T_k, [dec_k.etas])
    kg_gap_ok = dec_k.min_relative_gap > 1e-8
    resolvable = int(np.sum(np.diff(dec_d.etas) / dec_d.spread > 1e-8))
    elapsed = time.perf_counter() - t0
    ok = (dec_d.dim == 40 and dec_k.dim == 21 and kg_gap_ok and elapsed < 5.0)
    report(2, ok,
           f"counts 40/21, dense imag < 1e-10 (disc {disc_d:.1e}/{disc_k:.1e}), "
           f"kg min gap {dec_k.min_relative_gap:.1e} of spread; {resolvable}/39 "
           f"spin-1/2 gaps resolvable (pairing clause: see xfail), {elapsed:.2f}s")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "adjacent spin-1/2 pair splittings at n=20, a=14 shrink to ~1e-16 "
    "absolute (verified once at 60-digit precision: the eigenvalues are "
    "simple but split below double resolution), so no double-precision "
    "solver can show every gap above 1e-8 of the spectral spread"))
def test_criterion_02_dirac_pair_distinctness():
    dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0))
    min_gap = dec.min_relative_gap
    report(2, min_gap > 1e-8,
           f"(distinctness clause) dirac min adjacent gap {min_gap:.2e} of "
           f"spread vs required 1e-8")
    assert min_gap > 1e-8


def test_criterion_03_residual_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in ALL_KINDS:
        for n in range(1, GRID_N_MAX + 1):
            fam = SolutionFamily(kind, n)
            for a in GRID_A_VALUES:
                dec, passed = attach_residuals(
                    solve_spectrum(build_operator(fam, a)))
                scales = 1.0 + np.abs(dec.etas) + a * fam.dim
                worst = max(worst, float(np.max(dec.residuals / scales)))
                for i in range(dec.dim):
                    assert passed[i], (kind, n, a, i + 1)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 60.0
    report(3, ok, f"all eigenpairs of 6 families x n<=25 x 6 couplings: "
                  f"max residual/scale {worst:.2e} < 1e-9, {elapsed:.1f}s < 60s")
    assert ok


def test_criterion_04_oracle_agreement(grid_report):
    groups = {}
    for kind in ALL_KINDS:
        for n in range(1, GRID_N_MAX + 1):
            for a in GRID_A_VALUES:
                fam = SolutionFamily(kind, n)
                groups.setdefault(fam.dim, []).append((fam, a))
    stacks = [build_stack(*zip(*points)) for points in groups.values()]
    max_dense = max(float(np.max(dense_oracle_crosscheck(
                        ops, [dec.etas for dec in solve_spectra(ops)])))
                    for ops in stacks)
    max_sturm = max(p.checks["sturm"]["discrepancy"] for p in grid_report.points)
    ok = max_dense < 1e-9 and max_sturm < 1e-9
    report(4, ok, f"solver vs Sturm vs dense over the full grid: "
                  f"max dense {max_dense:.2e}, max Sturm {max_sturm:.2e}, "
                  f"both < 1e-9")
    assert ok


def test_criterion_05_free_limit_degeneration():
    worst = 0.0
    for kind in ALL_KINDS:
        for n in range(1, GRID_N_MAX + 1):
            fam = SolutionFamily(kind, n)
            dec = solve_spectrum(build_operator(fam, 0.0))
            expected = np.sort((2.0 * fam.xi_harmonics) ** 2)
            worst = max(worst, float(np.max(np.abs(dec.etas - expected))))
    ok = worst <= 1e-12
    report(5, ok, f"a=0 spectra equal squared basis frequencies, "
                  f"max deviation {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_06_closed_form_two_by_two():
    worst_formula = 0.0
    residual_ok = True
    for a in (0.0, 0.5, 3.0, 14.0, 20.0):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        dec = solve_spectrum(build_operator(fam, a))
        expected = np.array([2 - math.sqrt(4 + a * a), 2 + math.sqrt(4 + a * a)])
        worst_formula = max(worst_formula,
                            float(np.max(np.abs(dec.etas - expected))))
        residual_ok &= bool(np.all(attach_residuals(dec)[1]))
        fam = SolutionFamily(FamilyKind.KG_COS_EVEN, 1)
        dec = solve_spectrum(build_operator(fam, a))
        expected = np.array([2 - 2 * math.sqrt(1 + a * a),
                             2 + 2 * math.sqrt(1 + a * a)])
        worst_formula = max(worst_formula,
                            float(np.max(np.abs(dec.etas - expected))))
        residual_ok &= bool(np.all(attach_residuals(dec)[1]))
    ok = worst_formula < 1e-12 and residual_ok
    report(6, ok, f"2 +- sqrt(4+a^2) and 2 +- 2 sqrt(1+a^2): "
                  f"max formula deviation {worst_formula:.2e} < 1e-12, "
                  f"residual oracle agrees")
    assert ok


def test_criterion_07_spin_eigenproblem():
    gammas = build_majorana_gammas()
    defect = gammas.max_clifford_defect()
    se = spin_interaction_matrix(N_M_REF, gammas)
    lam = math.sqrt(1.0 - N_M_REF ** 2)
    w = np.sort(np.linalg.eigvals(se.matrix).real)
    eig_dev = float(np.max(np.abs(w - np.array([-lam, -lam, lam, lam]))))
    ok = defect <= 1e-14 and eig_dev < 1e-12 and abs(lam - 0.6398) < 1e-4
    report(7, ok, f"anticommutator defect {defect:.1e} <= 1e-14, "
                  f"eigenvalues +-{lam:.4f} twofold to {eig_dev:.1e}")
    assert ok


def test_criterion_08_dispersion_identity():
    worst = 0.0
    for k_y in np.logspace(2.0, 9.0, 100):
        d = dispersion(k_y, PLASMA)
        worst = max(worst, abs(d.v_ph * d.v_gr / C_LIGHT ** 2 - 1.0))
    ok = worst < 1e-12
    report(8, ok, f"v_ph * v_gr = c^2 over a 100-point k_y sweep, "
                  f"max deviation {worst:.2e} < 1e-12")
    assert ok


def test_criterion_09_pde_end_to_end():
    # the finite-difference reference converges at order 2 on two good
    # modes and not on a shifted one; the exact check passes and fails them
    orders, exact = {}, []
    for kind in (FamilyKind.KG_COS_EVEN, FamilyKind.DIRAC_PLUS):
        fam = SolutionFamily(kind, 2)
        dec = solve_spectrum(build_operator(fam, 5.0))
        eta = float(dec.etas[-1])
        mom = momentum_for_mode(fam, eta, N_M_REF)
        rep = pde_residual_fd(fam, dec.vectors[:, -1], mom, 5.0, 1e-3, N_M_REF)
        orders[kind.value] = rep.observed_order
        exact.append(_exact_pde_passed(fam, dec.vectors[:, -1], mom, 5.0))
    # negative control: same coefficients, shifted eigenvalue
    fam = SolutionFamily(FamilyKind.KG_COS_EVEN, 2)
    dec = solve_spectrum(build_operator(fam, 5.0))
    eta_bad = float(dec.etas[-1]) + 0.01 * (1.0 + abs(float(dec.etas[-1])))
    mom = momentum_for_mode(fam, eta_bad, N_M_REF)
    bad = pde_residual_fd(fam, dec.vectors[:, -1], mom, 5.0, 1e-3, N_M_REF)
    exact_bad = _exact_pde_passed(fam, dec.vectors[:, -1], mom, 5.0)
    ok = (all(abs(o - 2.0) <= 0.2 for o in orders.values())
          and bad.observed_order < 1.0 and bad.max_residual_half > 1e-6
          and all(exact) and not exact_bad)
    report(9, ok, f"observed orders {orders['kg-cos-even']:.3f} (spin-0), "
                  f"{orders['dirac-plus']:.3f} (spin-1/2) within 2.0 +- 0.2; "
                  f"negative control order {bad.observed_order:.3f}, "
                  f"residual floor {bad.max_residual_half:.1e}; exact check "
                  f"passes both modes and fails the control")
    assert ok


def test_criterion_10_envelope_bubble(capsys):
    code = main(["figure", "1"])
    out = capsys.readouterr().out
    rows = [l.split(",") for l in out.splitlines()
            if l and not l.startswith("#")][1:]
    xi = np.array([float(r[0]) for r in rows])
    d14 = np.array([float(r[1]) for r in rows])
    ratio = d14[np.argmin(np.abs(xi))] / d14[np.argmax(xi == np.pi)]
    amp, dens = contrast(14.0)
    ok = (code == 0
          and abs(ratio / math.exp(-14.0) - 1.0) < 1e-10
          and abs(amp - math.exp(7.0)) < 1e-9
          and abs(dens - math.exp(14.0)) < 1e-3)
    with capsys.disabled():
        report(10, ok, f"void/peak ratio e^-14 to {abs(ratio/math.exp(-14)-1):.1e}; "
                       f"contrasts e^(a/2) = {amp:.1f}, e^a = {dens:.4e} both reported")
    assert ok


def test_criterion_11_mass_independence_and_scale():
    a_e = WaveConfig(LASER, PLASMA, ELECTRON_MASS).derived().a
    a_p = WaveConfig(LASER, PLASMA, PROTON_MASS).derived().a
    mu0 = intensity_parameter(LASER, ELECTRON_MASS)
    ratio = a_e / mu0
    identity = coupling_to_mu0_ratio(ELECTRON_MASS, PLASMA)
    ok = (a_e == a_p
          and abs(ratio / identity - 1.0) < 1e-6
          and abs(ratio / 2.044e6 - 1.0) < 1e-3)
    report(11, ok, f"a bit-identical for electron/proton; a/mu0 = {ratio:.6e} "
                   f"matches 4 m c^2/(hbar omega_p) to "
                   f"{abs(ratio/identity-1):.1e} (>> mu0 confirmed)")
    assert ok


def test_criterion_12_harmonic_concentration():
    dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0))
    rows = harmonic_strengths(dec)
    sums = {}
    for k, r, s in rows:
        sums[k] = sums.get(k, 0.0) + s
    norm_dev = max(abs(t - 1.0) for t in sums.values())
    # the mode described as concentrated in a single positive-r peak is the
    # first one in an ordering that starts from the top of our ascending-eta
    # ladder, i.e. our k = dim
    top = dec.dim
    low_r = sum(s for k, r, s in rows if k == top and r <= 0)
    ok = low_r < 0.05 and norm_dev < 1e-12
    report(12, ok, f"single-peak mode (our k={top}) has {low_r:.2e} of its "
                   f"strength at r <= 0 (< 5%); every k slice sums to 1 to "
                   f"{norm_dev:.1e}; pairing metric emitted by `figure 2`")
    assert ok
