"""The oracle layer: ODE residuals, dense/Sturm cross-checks, the spacetime check."""

import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import incevolkov.forking as forking
import incevolkov.residual as residual
import incevolkov.verification as verification
from incevolkov.constants import SAMPLING_SEED
from incevolkov.errors import InputError, StructuralError
from incevolkov.families import (ALL_KINDS, FamilyKind, SolutionFamily, evaluate_basis,
                                 shared_bases)
from incevolkov.operators import TridiagonalOperator, build_operator
from incevolkov.physparams import DeBroglieMomentum
from incevolkov.residual import (ODE_RESIDUAL_TOL, _batch_residual_maxima,
                                 _ode_samples, _OdeSamples, _residual_values_batch,
                                 _sample_points, attach_residuals,
                                 seeded_angles)
from incevolkov.spectra import solve_spectra, solve_spectrum
from incevolkov.verification import (_charpoly_newton_polish,
                                     _residual_values_compensated,
                                     dense_oracle_crosscheck,
                                     momentum_for_mode, pde_residual,
                                     pde_stencil, run_grid, run_point,
                                     sturm_crosscheck)
from reference import pde_residual_fd

N_M = 0.7685453911282961
H = 1e-3                        # the step of the finite-difference reference


def _solved(kind, n, a):
    fam = SolutionFamily(kind, n)
    return fam, solve_spectrum(build_operator(fam, a))


def _solver_etas(ops):
    """(B, dim): the solver's etas of equal-dimension operators."""
    return np.stack([dec.etas for dec in solve_spectra(ops)])


def _dense_verdict(kind, n, a, eta_shift=0.0):
    """(discrepancy, passed) of the dense reference on the etas `run_point`
    judges, under the Sturm check's gate."""
    T = build_operator(SolutionFamily(kind, n), a)
    etas = _solver_etas([T]) + eta_shift
    disc, = dense_oracle_crosscheck([T], etas)
    return disc, bool(disc < sturm_crosscheck([T], etas)[1][0])


def _pde(stencil, families, *points):
    """`pde_residual` with each family's own basis on the stencil."""
    bases = {fam: fam.basis(stencil.z, derivatives=2) for fam in families}
    return pde_residual(stencil, bases, families, *points)


def _one_mode(fam, a, eta, c):
    """(max |residual|, scale, passed) of one eigenpair under the residual policy."""
    maxima, scales, passed = _batch_residual_maxima(
        _ode_samples([fam], SAMPLING_SEED)[fam], a, np.array([eta]),
        np.asarray(c, dtype=float)[:, None])
    return float(maxima[0]), float(scales[0]), bool(passed[0])


def vacuum_null_momentum(r, n_m):
    """Massless on-shell momentum for the a = 0 exact-cancellation check.

    Built so the total plane-wave vector of exp(-i r xi) exp(+i p~.x) is
    null and aligned with the x axis; the time and x derivatives of the
    free wave operator then cancel identically, leaving pure rounding
    noise.
    """
    if r < 1:
        raise InputError("harmonic r must be >= 1")
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    lam = math.sqrt(1.0 - n_m * n_m)
    return DeBroglieMomentum(
        p0=r * (1.0 + n_m * n_m) / lam, px=-r * lam, py=2.0 * r * n_m / lam,
        pz=0.0, eta=4.0 * r * r, kappa_star_sq=0.0)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _scalar_newton_polish(T, w, steps=3):
    """Per-eigenvalue loop form of the Newton polish on det(T - lam I)."""
    d, b = T.diag, T.super_ * T.sub
    pivmin = max(np.max(np.abs(b), initial=0.0), 1.0) * np.finfo(float).tiny * 1e4
    out = w.copy()
    for j, lam in enumerate(w):
        lam = float(lam)
        for _ in range(steps):
            q = d[0] - lam
            u_prev, u = 0.0, -1.0 / q
            for i in range(1, T.dim):
                q_div = -pivmin if abs(q) < pivmin else q
                q_next = (d[i] - lam) - b[i - 1] / q_div
                u_next = (-1.0 + (d[i] - lam) * u - b[i - 1] * u_prev / q) / q_next
                q, u_prev, u = q_next, u, u_next
            if (u == 0.0 or not np.isfinite(u)
                    or abs(1.0 / u) > max(1.0, 1e-9 * abs(w[j]))):
                break
            lam -= 1.0 / u
        out[j] = lam
    return out


def _residual_values_out_of_place(samples, a, etas, vectors):
    """The plain expression `_residual_values_batch` accumulates in place."""
    B, Bp, Bpp = samples.basis
    q = samples.family.q
    s = samples.family.spin_sign
    V = vectors.astype(B.dtype, copy=False)
    f = B @ V
    fp = Bp @ V
    fpp = Bpp @ V
    coupling = fp + 1j * s * f if s != 0 else fp
    return (fpp + a * samples.sin2z * coupling
            + (etas[None, :] - q * a * samples.cos2z) * f)


class TestOdeResidual:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_in_place_matches_out_of_place_bit_for_bit(self, kind):
        # every operator of the grid's n range at couplings up to 1e150:
        # equal bits, so equal maxima, scales and verdicts
        for n in range(1, 26):
            fam = SolutionFamily(kind, n)
            samples = _ode_samples([fam], SAMPLING_SEED)[fam]
            for a in (0.0, 0.5, 1.0, 5.0, 14.0, 20.0, 50.0, 1e3, 1e150):
                dec = solve_spectrum(build_operator(fam, a))
                got = _residual_values_batch(samples, a, dec.etas, dec.vectors)
                want = _residual_values_out_of_place(samples, a, dec.etas,
                                                     dec.vectors)
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (kind, n, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 0.5, 5.0, 20.0])
    def test_eigenpairs_pass(self, kind, a):
        fam, dec = _solved(kind, 6, a)
        for i in range(dec.dim):
            maximum, scale, passed = _one_mode(fam, a, float(dec.etas[i]),
                                               dec.vectors[:, i])
            assert passed, (kind, a, i, maximum, scale)

    def test_report_fields(self):
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        eta = float(dec.etas[0])
        _, scale, _ = _one_mode(fam, 5.0, eta, dec.vectors[:, 0])
        assert len(_sample_points(SAMPLING_SEED)) == 288
        assert scale == 1.0 + abs(eta) + 5.0 * fam.dim
        assert SAMPLING_SEED == 0x1CE

    def test_past_double_range_refused(self):
        # the dim-1 eigenpair is exact, but q a cos 2z f overflows: the
        # checker's range, not a failed mode
        fam, dec = _solved(FamilyKind.KG_SIN_ODD, 1, 1e308)
        samples = _ode_samples([fam], SAMPLING_SEED)[fam]
        assert np.isfinite(dec.etas).all() and np.isfinite(dec.vectors).all()
        with pytest.raises(InputError, match=r"^kg-sin-odd n = 1: a = 1e\+308 is past the "
                                             r"range limit of the ODE residual check"):
            _batch_residual_maxima(samples, 1e308, dec.etas, dec.vectors)

    def test_non_finite_modes_fail(self):
        # a NaN coefficient column, or a NaN eta, fails its mode and is not refused
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 3, 5.0)
        samples = _ode_samples([fam], SAMPLING_SEED)[fam]
        vectors, etas = dec.vectors.copy(), dec.etas.copy()
        vectors[:, 1] = np.nan
        etas[2] = np.nan
        maxima, _, passed = _batch_residual_maxima(samples, 5.0, etas, vectors)
        assert np.isnan(maxima[1:3]).all()
        assert passed.tolist() == [True, False, False, True]

    def test_perturbed_eigenvalue_detected(self):
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 3, 5.0)
        eta, c = float(dec.etas[2]), dec.vectors[:, 2]
        clean, _, _ = _one_mode(fam, 5.0, eta, c)
        bad, _, bad_passed = _one_mode(fam, 5.0, eta + 0.01, c)
        assert not bad_passed
        assert bad - clean >= 0.005 * np.min(np.abs(c))

    def test_random_vectors_all_fail(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 4, 5.0)
        eta = float(dec.etas[1])
        rng = np.random.default_rng(123)
        for _ in range(100):
            v = rng.normal(size=fam.dim)
            v /= np.linalg.norm(v)
            assert not _one_mode(fam, 5.0, eta, v)[2]

    def test_compensated_agrees(self):
        # the batch's rounding error sits far below the 1e-9 tolerance
        z = _sample_points(SAMPLING_SEED)
        for kind in ALL_KINDS:
            for a in (14.0, 20.0):
                fam, dec = _solved(kind, 25, a)
                plain = _residual_values_batch(_ode_samples([fam], SAMPLING_SEED)[fam],
                                               a, dec.etas, dec.vectors)
                for i in range(dec.dim):
                    eta = float(dec.etas[i])
                    comp = _residual_values_compensated(fam, a, eta,
                                                        dec.vectors[:, i], z)
                    scale = 1.0 + abs(eta) + a * fam.dim
                    assert np.max(np.abs(comp - plain[:, i])) < 1e-12 * scale, \
                        (kind, a, i)

    def test_verdict_from_one_batch(self, monkeypatch):
        # mode 78 of this operator lies within 10x of the tolerance; its
        # residual is still the plain batch maximum, no exact re-summation
        def refuse(*args, **kwargs):
            raise AssertionError("exact re-summation called")

        monkeypatch.setattr(verification, "_residual_values_compensated", refuse)
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 39, 14.0)
        samples = _ode_samples([fam], SAMPLING_SEED)[fam]
        eta, c = float(dec.etas[77]), dec.vectors[:, 77]
        plain = np.max(np.abs(_residual_values_batch(
            samples, 14.0, np.array([eta]), c[:, None])))
        maximum, scale, passed = _one_mode(fam, 14.0, eta, c)
        assert maximum == plain
        assert passed == (plain < ODE_RESIDUAL_TOL * scale)
        # the all-modes batch sums in another order than the one-mode batch
        batch = np.max(np.abs(_residual_values_batch(samples, 14.0, dec.etas,
                                                     dec.vectors)), axis=0)
        dec2, passed = attach_residuals(dec)
        assert np.array_equal(dec2.residuals, batch)
        assert passed[77] == (batch[77] < ODE_RESIDUAL_TOL * scale)

    def test_attach_residuals(self):
        fam, dec = _solved(FamilyKind.KG_SIN_ODD, 5, 14.0)
        dec2, passed = attach_residuals(dec)
        assert dec2.residuals is not None and len(dec2.residuals) == dec.dim
        scale = 1.0 + np.abs(dec2.etas) + 14.0 * fam.dim
        assert np.all(dec2.residuals < 1e-9 * scale)
        assert passed.dtype == bool and np.all(passed)

    def test_attach_residuals_flags_failures(self):
        # the eigenvector back-transform loses the high modes at this size
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 100, 14.0)
        dec2, passed = attach_residuals(dec)
        scale = 1.0 + np.abs(dec2.etas) + 14.0 * fam.dim
        assert np.array_equal(passed, dec2.residuals < 1e-9 * scale)
        assert passed[0] and not np.all(passed)


class TestResidualBlocks:
    """The residual policy judges at most residual._BLOCK_MODES modes at a time."""

    @staticmethod
    def _policy(samples, a, dec, block, monkeypatch):
        monkeypatch.setattr(residual, "_BLOCK_MODES", block)
        return _batch_residual_maxima(samples, a, dec.etas, dec.vectors)

    @pytest.mark.parametrize("kind", [FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS])
    def test_dirac_blocks_bit_identical_to_one_block(self, kind, monkeypatch):
        # dim 200 spans four blocks; a complex product split by columns
        # rounds every column as the whole product does
        fam, block = SolutionFamily(kind, 100), residual._BLOCK_MODES
        assert fam.dim > 3 * block
        samples = _ode_samples([fam], SAMPLING_SEED)[fam]
        for a in (1.0, 14.0, 50.0):
            dec = solve_spectrum(build_operator(fam, a))
            blocked = self._policy(samples, a, dec, block, monkeypatch)
            whole = self._policy(samples, a, dec, fam.dim, monkeypatch)
            for got, want in zip(blocked, whole):
                assert got.tobytes() == want.tobytes(), (kind, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_verdicts_as_one_block(self, kind, monkeypatch):
        # past one block the real product may round its last bits otherwise,
        # far below the tolerance: the verdicts stay the same
        n = 40 if kind.value.startswith("dirac") else 70
        fam, block = SolutionFamily(kind, n), residual._BLOCK_MODES
        assert fam.dim > block
        samples = _ode_samples([fam], SAMPLING_SEED)[fam]
        for a in (1.0, 14.0, 50.0):
            dec = solve_spectrum(build_operator(fam, a))
            maxima, scales, passed = self._policy(samples, a, dec, block, monkeypatch)
            one, _, one_passed = self._policy(samples, a, dec, fam.dim, monkeypatch)
            assert np.array_equal(passed, one_passed), (kind, a)
            assert np.all(np.abs(maxima - one) <= 1e-14 * scales), (kind, a)

    def test_peak_memory_a_few_blocks_above_the_basis(self):
        # dirac-plus n = 200: the basis holds 3 x 288 x 400 complex values
        # (5.5 MB); all modes at once held 9 MB more.  A block holds a few
        # (samples, block) arrays and one (dim, block) cast of the vectors.
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 200, 14.0)
        samples = len(_sample_points(SAMPLING_SEED))
        basis_bytes = 3 * samples * fam.dim * 16
        block_bytes = (samples + fam.dim) * residual._BLOCK_MODES * 16
        attach_residuals(dec)
        tracemalloc.start()
        try:
            attach_residuals(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < basis_bytes + 4 * block_bytes


class TestDenseCrosscheck:
    def test_reference_case(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0)
        assert dense_oracle_crosscheck([T], _solver_etas([T]))[0] < 1e-9

    def test_free_limit_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 5), 0.0)
        assert dense_oracle_crosscheck([T], _solver_etas([T]))[0] == 0.0

    def test_exact_dense_eigenvalue_kept(self):
        # dim 1: the raw dense value is exact, a zero pivot freezes the polish
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert dense_oracle_crosscheck([T], _solver_etas([T]))[0] == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 14.0, 1e10])
    def test_polish_matches_scalar_reference(self, kind, a):
        T = build_operator(SolutionFamily(kind, 12), a)
        w = np.sort(np.linalg.eigvals(T.to_dense()).real)
        polished = _charpoly_newton_polish(T.diag[None], (T.super_ * T.sub)[None], w[None])
        assert np.array_equal(polished[0], _scalar_newton_polish(T, w))

    def test_polish_stack_matches_each_alone(self):
        ops = [build_operator(SolutionFamily(kind, 6), a)
               for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
               for a in (0.0, 20.0)]
        d = np.stack([T.diag for T in ops])
        b = np.stack([T.super_ * T.sub for T in ops])
        w = np.sort(np.linalg.eigvals(np.stack([T.to_dense() for T in ops])).real,
                    axis=1)
        stacked = _charpoly_newton_polish(d, b, w)
        for i in range(len(ops)):
            assert np.array_equal(
                stacked[i], _charpoly_newton_polish(d[i:i + 1], b[i:i + 1],
                                                    w[i:i + 1])[0]), i

    def test_polish_step_cap_scales_with_the_eigenvalue(self):
        # eigenvalues up to 4e10, raw dense errors up to 1.66: under an
        # absolute step cap of 1 the polish left them as they were and the
        # point failed dense at 1.66
        p = run_point(FamilyKind.DIRAC_PLUS, 25, 1e10)
        assert _dense_verdict(FamilyKind.DIRAC_PLUS, 25, 1e10)[0] < 1e-3
        assert p.failed_checks == ["pde"]

    def test_strong_coupling_stress(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 5), 50.0)
        assert dense_oracle_crosscheck([T], _solver_etas([T]))[0] < 1e-8

    def test_dimension_cap(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 101), 1.0)     # dim 202
        with pytest.raises(InputError, match="range limit"):
            dense_oracle_crosscheck([T], _solver_etas([T]))

    def test_complex_spectrum_flagged(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        T = TridiagonalOperator(family=fam, a=1.0, diag=np.zeros(2),
                                super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError):
            dense_oracle_crosscheck([T], etas=[np.array([0.0, 0.0])])

    def test_complex_spectrum_names_its_operator(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        bad = TridiagonalOperator(family=fam, a=2.5, diag=np.zeros(2),
                                  super_=np.array([1.0]), sub=np.array([-1.0]))
        good = build_operator(fam, 1.0)
        with pytest.raises(StructuralError, match=r"^dirac-plus n=1 a=2\.5: dense "
                           r"eigenvalues have imaginary parts up to 1\.000e\+00"):
            dense_oracle_crosscheck([good, bad], etas=[np.zeros(2), np.zeros(2)])

    def test_operators_must_share_dimension(self):
        ops = [build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, n), 1.0)
               for n in (1, 2)]
        with pytest.raises(InputError):
            dense_oracle_crosscheck(ops, [solve_spectrum(T).etas for T in ops])


class TestSturmCrosscheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agreement(self, kind):
        T = build_operator(SolutionFamily(kind, 12), 14.0)
        assert sturm_crosscheck([T], _solver_etas([T]))[0][0] < 1e-10

    def test_certified_within_the_primary_share_of_the_gate(self):
        ops = [build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 12), a)
               for a in (0.5, 14.0, 1e10)]
        lo, hi = verification.gershgorin_bounds(
            np.stack([T.diag for T in ops]),
            np.sqrt(np.stack([T.super_ * T.sub for T in ops])))
        bound = np.maximum(np.abs(lo), np.abs(hi))
        radii, _ = sturm_crosscheck(ops, _solver_etas(ops))
        assert np.all(radii <= 8 * np.finfo(float).eps * bound)

    def test_dim_one_is_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 14.0)
        assert T.dim == 1 and sturm_crosscheck([T], _solver_etas([T]))[0][0] == 0.0
        # its entry is 0 at a = 1, where the Gershgorin bound B is 0 too
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert T.diag.tolist() == [0.0]
        assert sturm_crosscheck([T], np.array([[1e-6]]))[0][0] == 1e-6

    def test_stack_gives_each_operator_its_lone_gate(self):
        # every dimension group of the shipped grid, stacked as `verify`
        # stacks it: each operator's gate and radius are the bits it gets
        # alone.  The grid's gates are all the 1e-9 floor, so the stacks
        # also hold couplings whose gates scale with B
        groups = {}
        for kind in ALL_KINDS:
            for n in range(1, verification.DEFAULT_GRID_N_MAX + 1):
                for a in (*verification.DEFAULT_GRID_A_VALUES, 1e10, 1e150):
                    T = build_operator(SolutionFamily(kind, n), a)
                    groups.setdefault(T.dim, []).append(T)
        for ops in groups.values():
            etas = _solver_etas(ops)
            radii, gates = sturm_crosscheck(ops, etas)
            for i, T in enumerate(ops):
                radius, gate = sturm_crosscheck([T], etas[i:i + 1])
                assert gate.tobytes() == gates[i:i + 1].tobytes(), (T.dim, i)
                assert radius.tobytes() == radii[i:i + 1].tobytes(), (T.dim, i)

    def test_bad_bond_names_its_operator(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        bad = TridiagonalOperator(family=fam, a=2.5, diag=np.zeros(2),
                                  super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError, match=r"^bond 0: super\*sub = -1\.0 <= 0 "
                           r"at a = 2\.5"):
            sturm_crosscheck([build_operator(fam, 1.0), bad],
                             etas=[np.zeros(2), np.zeros(2)])


class TestMomentumBuilders:
    def test_mode_momentum_on_shell(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        assert mom.on_shell
        assert mom.px == fam.px_over_kp
        assert mom.py == 0.0 and mom.pz == 0.0

    def test_negative_eta_rejected(self):
        fam = SolutionFamily(FamilyKind.KG_COS_EVEN, 2)
        with pytest.raises(InputError):
            momentum_for_mode(fam, -1.0, N_M)

    def test_vacuum_momentum_null(self):
        for r in (1, 2, 5):
            mom = vacuum_null_momentum(r, N_M)
            assert mom.p_squared == pytest.approx(0.0, abs=1e-12)
            assert mom.eta == 4.0 * r * r


class TestPdeResidual:
    # the order tests run on the finite-difference reference
    def test_kg_second_order_convergence(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        rep = pde_residual_fd(fam, dec.vectors[:, -1], mom, 5.0, H, N_M)
        assert rep.converged_second_order
        assert abs(rep.observed_order - 2.0) <= 0.2

    def test_dirac_both_branches_converge(self):
        for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS):
            fam, dec = _solved(kind, 2, 5.0)
            mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
            rep = pde_residual_fd(fam, dec.vectors[:, -1].astype(complex), mom, 5.0, H, N_M)
            assert abs(rep.observed_order - 2.0) <= 0.2, kind

    def test_negative_control_does_not_converge(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta_bad = float(dec.etas[-1]) + 0.01 * (1 + abs(float(dec.etas[-1])))
        mom = momentum_for_mode(fam, eta_bad, N_M)
        rep = pde_residual_fd(fam, dec.vectors[:, -1], mom, 5.0, H, N_M)
        assert rep.observed_order < 1.0
        assert rep.max_residual_half > 1e-6

    def test_wrong_spin_branch_detected(self):
        # feed the +i f eigenvector into the -i f equation at the same eta
        _, dec_plus = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        fam_minus = SolutionFamily(FamilyKind.DIRAC_MINUS, 2)
        mom = momentum_for_mode(fam_minus, float(dec_plus.etas[-1]), N_M)
        rep = pde_residual_fd(fam_minus, dec_plus.vectors[:, -1], mom, 5.0, H, N_M)
        assert rep.max_residual_half > 1e-3
        [exact] = _pde(pde_stencil(N_M), [fam_minus], [dec_plus.vectors[:, -1]],
                       [mom], [5.0])
        assert not exact.passed and exact.max_residual_over_gate > 1e6

    def test_vacuum_exact_cancellation(self):
        # massless null mode of the free equation: the time and x
        # derivatives cancel identically, so the residual is rounding noise
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        c = np.array([0.0, 1.0])               # single harmonic exp(-i xi)
        mom = vacuum_null_momentum(1, N_M)
        [rep] = _pde(pde_stencil(N_M), [fam], [c], [mom], [0.0])
        assert rep.max_residual < 1e-10 and rep.passed

    def test_off_shell_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=good.pz,
                                eta=good.eta,
                                kappa_star_sq=good.kappa_star_sq + 1.0)
        with pytest.raises(InputError):
            _pde(pde_stencil(N_M), [fam], [dec.vectors[:, -1]], [bad], [5.0])

    def test_pz_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=0.5,
                                eta=good.eta,
                                kappa_star_sq=good.kappa_star_sq - 0.25)
        with pytest.raises(InputError):
            _pde(pde_stencil(N_M), [fam], [dec.vectors[:, -1]], [bad], [5.0])

    def test_px_quantization_enforced(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta = float(dec.etas[-1])
        lam = np.sqrt(1 - N_M ** 2)
        p0 = lam * np.sqrt(eta) / 2
        bad = DeBroglieMomentum(p0=p0, px=1.0, py=0.0, pz=0.0, eta=eta,
                                kappa_star_sq=p0 * p0 - 1.0)
        with pytest.raises(InputError):
            _pde(pde_stencil(N_M), [fam], [dec.vectors[:, -1]], [bad], [5.0])

    @staticmethod
    def _top_mode_point(kind, n, a):
        """(family, coefficients, momentum, a) of the check `verify` runs."""
        fam, dec = _solved(kind, n, a)
        top = int(np.nonzero(dec.etas >= 0.0)[0][-1])
        mom = momentum_for_mode(fam, float(dec.etas[top]), N_M)
        return fam, dec.vectors[:, top], mom, a

    def test_batch_matches_batches_of_one(self):
        # one dimension group: complex-basis dirac families, real-basis KG
        # families, two couplings, and a complex vector on a real basis;
        # each point must get the report it gets alone (repr: exact, NaN-safe)
        points = [self._top_mode_point(kind, n, a)
                  for kind, n in ((FamilyKind.DIRAC_PLUS, 3), (FamilyKind.DIRAC_MINUS, 3),
                                  (FamilyKind.KG_COS_EVEN, 5), (FamilyKind.KG_SIN_ODD, 6))
                  for a in (14.0, 50.0)]
        fam, c, mom, a = points[4]
        assert fam.basis(np.zeros(1))[0].dtype == float and a == 14.0
        points.append((fam, c * np.exp(0.7j), mom, a))
        batches = {}
        for fam, c, mom, a in points:
            basis = fam.basis(np.zeros(1))[0]
            batches.setdefault(np.result_type(basis, c), []).append((fam, c, mom, a))
        assert len(batches) == 2
        stencil = pde_stencil(N_M)
        for batch in batches.values():
            for point, rep in zip(batch, _pde(stencil, *zip(*batch)), strict=True):
                assert repr(rep) == repr(_pde(stencil, *zip(point))[0])

    def test_mixed_dtype_rejected(self):
        kg = self._top_mode_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        dirac = self._top_mode_point(FamilyKind.DIRAC_PLUS, 3, 14.0)
        with pytest.raises(InputError, match="one result dtype"):
            _pde(pde_stencil(N_M), *zip(kg, dirac))


# the points of the negative controls: the thinnest margin of the shipped
# grid (dirac-minus n = 22, a = 14), and three past it
CONTROL_POINTS = [(FamilyKind.DIRAC_MINUS, 22, 14.0), (FamilyKind.DIRAC_PLUS, 20, 14.0),
                  (FamilyKind.DIRAC_PLUS, 20, 50.0), (FamilyKind.KG_COS_ODD, 23, 50.0)]
SPIN_PARTNER = {FamilyKind.DIRAC_PLUS: FamilyKind.DIRAC_MINUS,
                FamilyKind.DIRAC_MINUS: FamilyKind.DIRAC_PLUS}


class TestExactPdeResidual:
    @pytest.mark.parametrize("kind,n,a", CONTROL_POINTS)
    def test_good_mode_passes(self, kind, n, a):
        [rep] = _pde(pde_stencil(N_M), *zip(TestPdeResidual._top_mode_point(kind, n, a)))
        assert rep.passed and rep.max_residual_over_gate < 0.1

    @pytest.mark.parametrize("kind,n,a,control", [
        (*point, control) for point in CONTROL_POINTS
        for control in ("coefficient sign", "potential sign", "other spin",
                        "eta (1 + 1e-8)", "eta + 1%")
        if control != "other spin" or point[0] in SPIN_PARTNER])
    def test_negative_control_fails(self, kind, n, a, control):
        # each must fail the exact check, so every one that fails the
        # finite-difference reference fails it too
        fam, c, mom, a = TestPdeResidual._top_mode_point(kind, n, a)
        eta = mom.eta
        if control == "coefficient sign":
            c = c.copy()
            c[np.argmax(np.abs(c))] *= -1.0
        elif control == "potential sign":
            a = -a
        elif control == "other spin":
            fam = SolutionFamily(SPIN_PARTNER[kind], n)
            mom = momentum_for_mode(fam, eta, N_M)
        elif control == "eta (1 + 1e-8)":
            mom = momentum_for_mode(fam, eta * (1.0 + 1e-8), N_M)
        else:
            mom = momentum_for_mode(fam, eta + 0.01 * (1.0 + abs(eta)), N_M)
        [rep] = _pde(pde_stencil(N_M), [fam], [c], [mom], [a])
        assert not rep.passed and rep.max_residual_over_gate > 5.0

    def test_overflow_fails(self):
        # e^(a/4) leaves double range: the residual is not finite
        fam, c, mom, _ = TestPdeResidual._top_mode_point(FamilyKind.KG_COS_EVEN, 2, 14.0)
        [rep] = _pde(pde_stencil(N_M), [fam], [c], [mom], [1e4])
        assert not rep.passed and not math.isfinite(rep.max_residual_over_gate)

    def test_verdicts_agree_with_the_reference_on_the_grid(self):
        # every default-grid point: the reference at the step `verify` used
        # (5e-3 for a <= 25) passes the same points as the exact check
        grid = run_grid()
        assert grid.all_passed
        for p in grid.points:
            fam, dec = _solved(FamilyKind(p.kind), p.n, p.a)
            propagating = np.nonzero(dec.etas >= 0.0)[0]
            if len(propagating) == 0:
                continue
            top = int(propagating[-1])
            mom = momentum_for_mode(fam, float(dec.etas[top]), N_M)
            fd = pde_residual_fd(fam, dec.vectors[:, top], mom, p.a, 5e-3, N_M)
            assert fd.passed == p.checks["pde"]["passed"], (p.kind, p.n, p.a)


class TestRunPoint:
    @pytest.mark.parametrize("kind,n,a", [
        (FamilyKind.DIRAC_PLUS, 20, 14.0),
        (FamilyKind.KG_COS_EVEN, 20, 14.0),
        (FamilyKind.KG_SIN_EVEN, 7, 0.0),
        (FamilyKind.KG_COS_ODD, 1, 20.0),
    ])
    def test_points_pass(self, kind, n, a):
        p = run_point(kind, n, a)
        assert p.passed, p

    def test_free_limit_note(self):
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 0.0)
        assert "a=0" in p.note

    def test_fault_injection_caught(self):
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 5.0, eta_shift=0.01)
        assert not p.checks["ode"]["passed"]
        assert not _dense_verdict(FamilyKind.DIRAC_PLUS, 3, 5.0, eta_shift=0.01)[1]
        assert not p.checks["sturm"]["passed"]
        assert not p.passed
        # the benchmark's negative control: the Sturm radius is within a
        # factor 2 above the shift
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 5.0, eta_shift=1e-6)
        sturm = p.checks["sturm"]
        assert not sturm["passed"] and 1e-6 <= sturm["discrepancy"] < 2e-6

    def test_agreement_gate_scales_with_the_eigenvalues(self):
        # at a = 1e150 the oracles agree to a few ulps of eigenvalues near
        # 5e150 and pass; a shift of 1e138 (2e-13 of them) still fails
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 1e150)
        dense_disc, dense_passed = _dense_verdict(FamilyKind.DIRAC_PLUS, 3, 1e150)
        assert dense_passed and p.checks["sturm"]["passed"] and dense_disc > 1e135
        shifted = run_point(FamilyKind.DIRAC_PLUS, 3, 1e150, eta_shift=1e138)
        assert (not _dense_verdict(FamilyKind.DIRAC_PLUS, 3, 1e150, eta_shift=1e138)[1]
                and not shifted.checks["sturm"]["passed"])

    def test_determinism(self):
        p1 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        p2 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        assert p1 == p2


class TestOneBlasThread:
    @pytest.fixture
    def threads(self):
        threads = forking.openblas_threads()
        if threads is None:
            pytest.skip("numpy does not run its bundled OpenBLAS here")
        return threads

    def test_checks_run_on_one_thread_and_restore_the_count(self, threads, monkeypatch):
        get, _ = threads
        before, seen = get(), []
        solve = verification.solve_spectra

        def record(ops):
            seen.append(get())
            return solve(ops)

        monkeypatch.setattr(verification, "solve_spectra", record)
        run_grid(n_max=2, a_values=(1.0,))
        assert seen and set(seen) == {1}
        assert get() == before
        with pytest.raises(InputError):
            run_point(FamilyKind.DIRAC_PLUS, 3, -1.0)
        assert get() == before

    def test_thread_count_changes_no_bit(self, threads):
        # the largest grid dimension (50), where OpenBLAS hands the stacked
        # eigh and the complex residual products to its workers
        get, set_ = threads
        points = [(kind, 25, a) for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
                  for a in verification.DEFAULT_GRID_A_VALUES]
        before = get()
        try:
            set_(2)
            threaded = verification._check_round.__wrapped__(points, SAMPLING_SEED, 0.0)
        finally:
            set_(before)
        assert repr(threaded) == repr(verification._check_round(points, SAMPLING_SEED, 0.0))


def test_grid_matches_points():
    # groups of one dimension mix kinds and couplings, and a family's bases
    # serve all its couplings; each report must be the one its point gets
    # alone, in grid order (repr: exact, NaN-safe)
    ns, a_values = (1, 2, 7, 25), (0.0, 14.0, 50.0)
    grid = run_grid(n_max=max(ns), a_values=a_values)
    kinds = sorted(ALL_KINDS, key=lambda k: k.value)
    expected = [(kind.value, n, a) for kind in kinds
                for n in range(1, max(ns) + 1) for a in a_values]
    assert [(p.kind, p.n, p.a) for p in grid.points] == expected
    for p in grid.points:
        if p.n in ns:
            assert repr(p) == repr(run_point(FamilyKind(p.kind), p.n, p.a))


def test_grid_builds_each_basis_once(monkeypatch):
    # each of the five basis sets once at the ODE sample points and once
    # on the stencil, one stencil per round, one spacetime batch per
    # (dimension group, result dtype), and one solve and one Sturm pass per
    # dimension group
    evaluated, stencils, batches, solves, sturms = [], [], [], [], []
    stencil = verification.pde_stencil
    residual = verification.pde_residual
    solve, sturm = verification.solve_spectra, verification.sturm_crosscheck

    def count_evaluate(fn, nu, z, derivatives=0):
        where = "stencil" if any(z is st.z for st in stencils) else "ode"
        evaluated.append(((fn, float(nu[0] / 2.0 % 1.0)), where, derivatives))
        return evaluate_basis(fn, nu, z, derivatives)

    def count_stencils(n_m, seed):
        stencils.append(stencil(n_m, seed))
        return stencils[-1]

    def count_batches(stencil, bases, families, coefficients, momenta, couplings):
        batches.append((families[0].dim, np.result_type(bases[families[0]][0], coefficients[0])))
        return residual(stencil, bases, families, coefficients, momenta, couplings)

    def count_solves(ops):
        solves.append(ops[0].dim)
        return solve(ops)

    def count_sturms(ops, etas):
        sturms.append(ops[0].dim)
        return sturm(ops, etas)

    monkeypatch.setattr("incevolkov.families.evaluate_basis", count_evaluate)
    monkeypatch.setattr(verification, "pde_stencil", count_stencils)
    monkeypatch.setattr(verification, "pde_residual", count_batches)
    monkeypatch.setattr(verification, "solve_spectra", count_solves)
    monkeypatch.setattr(verification, "sturm_crosscheck", count_sturms)
    # the counters see one process's calls: the round runs in this one
    monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
    run_grid(n_max=3, a_values=(0.5, 14.0, 20.0, 50.0))
    sets = [("exp", 0.0), ("cos", 0.0), ("cos", 0.5), ("sin", 0.0), ("sin", 0.5)]
    assert sorted(evaluated, key=repr) == sorted(
        [(key, where, 2) for key in sets for where in ("ode", "stencil")], key=repr)
    assert len(stencils) == 1
    dims = {SolutionFamily(kind, n).dim for kind in ALL_KINDS for n in (1, 2, 3)}
    assert sorted(solves) == sorted(sturms) == sorted(dims)
    assert len(batches) == len(set(batches))
    assert {dtype for _, dtype in batches} == {np.dtype(float), np.dtype(complex)}
    # run_point is a round of one: its own set, once per use
    evaluated.clear()
    stencils.clear()
    run_point(FamilyKind.DIRAC_MINUS, 3, 50.0)
    assert evaluated == [(("exp", 0.0), "ode", 2), (("exp", 0.0), "stencil", 2)]
    assert len(stencils) == 1


def _grid_points(a_values=verification.DEFAULT_GRID_A_VALUES, n_max=25):
    """The (kind, n, a) points of `run_grid`, in its order."""
    return [(kind, n, float(a)) for kind in sorted(ALL_KINDS, key=lambda k: k.value)
            for n in range(1, n_max + 1) for a in a_values]


def _round(monkeypatch, cpus, points, eta_shift=0.0):
    """`_check_round` of points as a host with `cpus` usable CPUs runs it."""
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    return verification._check_round(points, SAMPLING_SEED, eta_shift)


# a round forks only when it can hold numpy's bundled OpenBLAS at one thread
forks = pytest.mark.skipif(forking.openblas_threads() is None,
                           reason="numpy does not run its bundled OpenBLAS here")


class TestTwoProcessRound:
    @pytest.mark.parametrize("a_values, eta_shift", [
        (verification.DEFAULT_GRID_A_VALUES, 0.0), ((50.0,), 0.0),
        (verification.DEFAULT_GRID_A_VALUES, 1e-6)], ids=["grid", "a50", "eta-shift"])
    def test_reports_match_one_process(self, monkeypatch, a_values, eta_shift):
        # repr: exact, NaN-safe; with the shift, points fail
        points = _grid_points(a_values)
        two = _round(monkeypatch, 2, points, eta_shift)
        assert repr(two) == repr(_round(monkeypatch, 1, points, eta_shift))
        assert len(two) == len(points)

    def test_error_matches_one_process(self, monkeypatch):
        # every group of dim >= 2 refuses its bonds at a = 1e308
        points = _grid_points((1e308,))
        raised = []
        for cpus in (2, 1):
            with pytest.raises(Exception) as info:
                _round(monkeypatch, cpus, points)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][0] is InputError

    @forks
    def test_first_exception_in_group_order_wins(self, monkeypatch):
        # the groups from position `first` on raise, naming their position;
        # the shares run apart, and the round still raises the first
        points = _grid_points((14.0,))
        dims = list(dict.fromkeys(SolutionFamily(kind, n).dim for kind, n, _ in points))
        split, shares, first = verification._split_shares, [], 0

        def record_split(costs):
            shares.append(split(costs))
            return shares[-1]

        def check_group(group, *args):
            position = dims.index(SolutionFamily(*group[0][:2]).dim)
            if position >= first:
                raise InputError(f"group {position}")
            return [None] * len(group)

        monkeypatch.setattr(verification, "_split_shares", record_split)
        monkeypatch.setattr(verification, "_check_group", check_group)
        owners = set()
        for first in range(6):
            with pytest.raises(InputError, match=f"^group {first}$"):
                _round(monkeypatch, 2, points)
            mine, theirs = shares[-1]
            assert max(mine) >= first and max(theirs) >= first    # both shares raise
            owners.add(first in theirs)
        assert owners == {False, True}      # the first is the child's, and this process's

    @forks
    def test_both_processes_run_on_one_blas_thread(self, monkeypatch):
        get, _ = forking.openblas_threads()
        monkeypatch.setattr(verification, "_check_group",
                            lambda group, *args: [(os.getpid(), get())] * len(group))
        reports = _round(monkeypatch, 2, _grid_points((14.0,)))
        pids = {pid for pid, _ in reports}
        assert len(pids) == 2 and os.getpid() in pids
        assert {count for _, count in reports} == {1}

    def test_unpinned_blas_does_not_fork(self, monkeypatch):
        # without numpy's bundled OpenBLAS the BLAS threads cannot be held
        # at one, and the workers of two processes would spin against each
        # other: the round runs in this process, with the same reports
        points = _grid_points((14.0, 50.0))
        pinned = _round(monkeypatch, 2, points)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(forking, "openblas_threads", lambda: None)
        monkeypatch.setattr(forking.os, "fork", no_fork)
        assert repr(_round(monkeypatch, 2, points)) == repr(pinned)

    def test_one_group_or_one_cpu_does_not_fork(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(forking.os, "fork", no_fork)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        assert run_point(FamilyKind.DIRAC_PLUS, 3, 14.0).passed
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        assert run_grid(n_max=2, a_values=(14.0,)).all_passed

    def test_no_child_is_left(self, monkeypatch):
        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        assert run_grid(n_max=3, a_values=(14.0,)).all_passed
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        with pytest.raises(InputError):
            run_grid(n_max=3, a_values=(1e308,))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @forks
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="the platform does not list a process's descriptors")
    def test_a_failed_fork_leaks_no_descriptor(self, monkeypatch):
        def no_process():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        monkeypatch.setattr(forking.os, "fork", no_process)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(OSError, match="temporarily unavailable"):
                run_grid(n_max=2, a_values=(14.0,))
        assert len(os.listdir("/proc/self/fd")) == before

    @forks
    def test_a_child_without_its_result_is_an_error(self, monkeypatch):
        parent = os.getpid()

        def check_group(group, *args):
            if os.getpid() != parent:
                os._exit(3)
            return [None] * len(group)

        monkeypatch.setattr(verification, "_check_group", check_group)
        with pytest.raises(RuntimeError, match="ended without its result"):
            _round(monkeypatch, 2, _grid_points((14.0,)))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_an_interrupt_stops_the_child(self, monkeypatch):
        parent = os.getpid()

        def check_group(group, *args):
            if os.getpid() != parent:
                time.sleep(60)
            raise KeyboardInterrupt

        monkeypatch.setattr(verification, "_check_group", check_group)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _round(monkeypatch, 2, _grid_points((14.0,)))
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_buffered_output_is_printed_once(self):
        # both streams are pipes, so the text waits in their buffers at the fork
        src = str(Path(verification.__file__).resolve().parents[1])
        script = ("import sys\n"
                  "from incevolkov import forking, verification\n"
                  "forking.usable_cpus = lambda: 2\n"
                  "sys.stdout.write('out')\n"
                  "sys.stderr.write('err')\n"
                  "assert verification.run_grid(n_max=3, a_values=(14.0,)).all_passed\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "out", "err")


@given(st.lists(st.integers(0, 10 ** 6), max_size=60))
def test_split_puts_every_group_in_one_share(costs):
    mine, theirs = verification._split_shares(costs)
    assert mine == sorted(mine) and theirs == sorted(theirs)
    assert sorted(mine + theirs) == list(range(len(costs)))
    loads = [sum(costs[g] for g in share) for share in (mine, theirs)]
    assert abs(loads[0] - loads[1]) <= max(costs, default=0)


def test_shared_bases_carry_each_familys_bits():
    # every family of the grid's n range: its columns of the shared sets are
    # the bits of its own basis, signed zeros included, and so is the
    # residual policy's report on them
    fams = [SolutionFamily(kind, n) for kind in ALL_KINDS for n in range(1, 26)]
    z = _sample_points(SAMPLING_SEED)
    samples = _ode_samples(fams, SAMPLING_SEED)
    stencil = pde_stencil(N_M)
    on_stencil = shared_bases(fams, stencil.z, derivatives=2)
    for fam in fams:
        pairs = [*zip(samples[fam].basis, fam.basis(z, derivatives=2), strict=True),
                 *zip(on_stencil[fam], fam.basis(stencil.z, derivatives=2), strict=True)]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), fam
        alone = _OdeSamples(fam, fam.basis(z, derivatives=2), samples[fam].sin2z,
                            samples[fam].cos2z)
        for a in verification.DEFAULT_GRID_A_VALUES:
            dec = solve_spectrum(build_operator(fam, a))
            got, want = (_batch_residual_maxima(s, a, dec.etas, dec.vectors)
                         for s in (samples[fam], alone))
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (fam, a)


class TestSeededAngles:
    @pytest.mark.parametrize("seed", [0, 1, 0x1CE, 2**32 - 1, 2**32, 2**64 + 5, 2**127 + 3],
                             ids=["0", "1", "0x1CE", "2**32-1", "2**32", "2**64+5",
                                  "2**127+3"])
    @pytest.mark.parametrize("count", [32, 3 * verification.PDE_POINTS])
    def test_python_random_stream(self, seed, count):
        rng = random.Random(seed)
        expected = [2.0 * math.pi * rng.random() for _ in range(count)]
        got = seeded_angles(seed, count)
        assert got.dtype == np.float64 and got.tolist() == expected
        assert ((0.0 <= got) & (got < 2.0 * math.pi)).all()

    def test_deterministic(self):
        first = seeded_angles(SAMPLING_SEED, 64)
        assert seeded_angles(SAMPLING_SEED, 64).tobytes() == first.tobytes()
        # a shorter draw is the head of the longer one
        assert seeded_angles(SAMPLING_SEED, 32).tobytes() == first[:32].tobytes()

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            seeded_angles(-1, 32)
