"""The oracle layer: ODE residuals, dense/Sturm cross-checks, spacetime FD."""

import numpy as np
import pytest

from incevolkov.errors import InputError, StructuralError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import (TridiagonalOperator, build_dirac_operator,
                                  build_kg_operator, build_operator)
from incevolkov.physparams import DeBroglieMomentum
from incevolkov.spectra import solve_spectrum
from incevolkov.verification import (SAMPLING_SEED, _charpoly_newton_polish,
                                     _residual_values_batch,
                                     _residual_values_compensated,
                                     _sample_points, attach_residuals,
                                     dense_oracle_crosscheck,
                                     momentum_for_mode, ode_residual,
                                     pde_residual_fd, run_point,
                                     sturm_crosscheck, vacuum_null_momentum)

N_M = 0.7685453911282961


def _solved(kind, n, a):
    fam = SolutionFamily(kind, n)
    return fam, solve_spectrum(build_operator(fam, a))


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
            if u == 0.0 or not np.isfinite(u) or abs(1.0 / u) > 1.0:
                break
            lam -= 1.0 / u
        out[j] = lam
    return out


class TestOdeResidual:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 0.5, 5.0, 20.0])
    def test_eigenpairs_pass(self, kind, a):
        fam, dec = _solved(kind, 6, a)
        for i in range(dec.dim):
            rep = ode_residual(fam, a, float(dec.etas[i]), dec.vectors[:, i],
                               k_index=i + 1)
            assert rep.passed, (kind, a, i, rep.max_residual, rep.scale)

    def test_report_fields(self):
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        rep = ode_residual(fam, 5.0, float(dec.etas[0]), dec.vectors[:, 0])
        assert rep.sample_count == 288
        assert rep.scale == 1.0 + abs(rep.eta) + 5.0 * fam.dim
        assert rep.seed == 0x1CE

    def test_perturbed_eigenvalue_detected(self):
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 3, 5.0)
        eta, c = float(dec.etas[2]), dec.vectors[:, 2]
        clean = ode_residual(fam, 5.0, eta, c)
        bad = ode_residual(fam, 5.0, eta + 0.01, c)
        assert not bad.passed
        assert bad.max_residual - clean.max_residual >= 0.005 * np.min(np.abs(c))

    def test_random_vectors_all_fail(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 4, 5.0)
        eta = float(dec.etas[1])
        rng = np.random.default_rng(123)
        for _ in range(100):
            v = rng.normal(size=fam.dim)
            v /= np.linalg.norm(v)
            rep = ode_residual(fam, 5.0, eta, v)
            assert not rep.passed

    def test_compensated_agrees(self):
        z = _sample_points(SAMPLING_SEED)
        for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.KG_SIN_ODD):
            fam, dec = _solved(kind, 10, 20.0)
            plain = _residual_values_batch(fam, 20.0, dec.etas, dec.vectors, z)
            for i in range(dec.dim):
                eta = float(dec.etas[i])
                comp = _residual_values_compensated(fam, 20.0, eta,
                                                    dec.vectors[:, i], z)
                scale = 1.0 + abs(eta) + 20.0 * fam.dim
                assert np.max(np.abs(comp - plain[:, i])) < 1e-9 * scale

    def test_recheck_reported(self):
        # mode 78 of this operator lands within the recheck margin
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 39, 14.0)
        eta, c = float(dec.etas[77]), dec.vectors[:, 77]
        rep = ode_residual(fam, 14.0, eta, c, k_index=78)
        comp = _residual_values_compensated(fam, 14.0, eta, c,
                                            _sample_points(SAMPLING_SEED))
        assert rep.compensated
        assert rep.max_residual == np.max(np.abs(comp))
        assert not ode_residual(fam, 14.0, float(dec.etas[0]),
                                dec.vectors[:, 0]).compensated

    def test_coefficient_length_checked(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 2)
        with pytest.raises(InputError):
            ode_residual(fam, 1.0, 0.0, np.ones(3))

    def test_attach_residuals(self):
        fam, dec = _solved(FamilyKind.KG_SIN_ODD, 5, 14.0)
        dec2 = attach_residuals(dec)
        assert dec2.residuals is not None and len(dec2.residuals) == dec.dim
        scale = 1.0 + np.abs(dec2.etas) + 14.0 * fam.dim
        assert np.all(dec2.residuals < 1e-9 * scale)


class TestDenseCrosscheck:
    def test_reference_case(self):
        T = build_dirac_operator(20, 14.0)
        assert dense_oracle_crosscheck(T) < 1e-9

    def test_free_limit_exact(self):
        T = build_dirac_operator(5, 0.0)
        assert dense_oracle_crosscheck(T) == 0.0

    def test_exact_dense_eigenvalue_kept(self):
        # dim 1: the raw dense value is exact, a zero pivot freezes the polish
        T = build_kg_operator("kg-sin-odd", 1, 1.0)
        assert dense_oracle_crosscheck(T) == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 14.0])
    def test_polish_matches_scalar_reference(self, kind, a):
        T = build_operator(SolutionFamily(kind, 12), a)
        w = np.sort(np.linalg.eigvals(T.to_dense()).real)
        assert np.array_equal(_charpoly_newton_polish(T, w),
                              _scalar_newton_polish(T, w))

    def test_strong_coupling_stress(self):
        T = build_kg_operator(FamilyKind.KG_COS_EVEN, 5, 50.0)
        assert dense_oracle_crosscheck(T) < 1e-8

    def test_dimension_cap(self):
        T = build_dirac_operator(101, 1.0)     # dim 202
        with pytest.raises(InputError):
            dense_oracle_crosscheck(T)

    def test_complex_spectrum_flagged(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        T = TridiagonalOperator(family=fam, a=1.0, diag=np.zeros(2),
                                super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError):
            dense_oracle_crosscheck(T, etas=np.array([0.0, 0.0]))


class TestSturmCrosscheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agreement(self, kind):
        T = build_operator(SolutionFamily(kind, 12), 14.0)
        assert sturm_crosscheck(T) < 1e-10


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
    def test_kg_second_order_convergence(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M, k_index=dec.dim)
        rep = pde_residual_fd(fam, dec.vectors[:, -1], mom, N_M, 5.0)
        assert rep.converged_second_order
        assert abs(rep.observed_order - 2.0) <= 0.2

    def test_dirac_both_branches_converge(self):
        for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS):
            fam, dec = _solved(kind, 2, 5.0)
            mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M, k_index=dec.dim)
            rep = pde_residual_fd(fam, dec.vectors[:, -1].astype(complex),
                                  mom, N_M, 5.0)
            assert abs(rep.observed_order - 2.0) <= 0.2, kind

    def test_negative_control_does_not_converge(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta_bad = float(dec.etas[-1]) + 0.01 * (1 + abs(float(dec.etas[-1])))
        mom = momentum_for_mode(fam, eta_bad, N_M, k_index=dec.dim)
        rep = pde_residual_fd(fam, dec.vectors[:, -1], mom, N_M, 5.0)
        assert rep.observed_order < 1.0
        assert rep.max_residual_half > 1e-6

    def test_wrong_spin_branch_detected(self):
        # feed the +i f eigenvector into the -i f equation at the same eta
        _, dec_plus = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        fam_minus = SolutionFamily(FamilyKind.DIRAC_MINUS, 2)
        mom = momentum_for_mode(fam_minus, float(dec_plus.etas[-1]), N_M)
        rep = pde_residual_fd(fam_minus, dec_plus.vectors[:, -1], mom, N_M, 5.0)
        assert rep.max_residual_half > 1e-3

    def test_vacuum_exact_cancellation(self):
        # massless null mode of the free equation: the time and x stencils
        # cancel identically, so the residual is rounding noise, independent
        # of the step (the noise scales like eps/h^2, so coarser is cleaner)
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        c = np.array([0.0, 1.0])               # single harmonic exp(-i xi)
        mom = vacuum_null_momentum(1, N_M)
        for h in (1e-2, 2e-2, 4e-2):
            rep = pde_residual_fd(fam, c, mom, N_M, 0.0, h=h)
            assert rep.max_residual < 1e-10

    def test_off_shell_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=good.pz,
                                eta=good.eta, q=good.q, n=good.n,
                                k_index=good.k_index,
                                kappa_star_sq=good.kappa_star_sq + 1.0)
        with pytest.raises(InputError):
            pde_residual_fd(fam, dec.vectors[:, -1], bad, N_M, 5.0)

    def test_pz_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=0.5,
                                eta=good.eta, q=good.q, n=good.n,
                                k_index=good.k_index,
                                kappa_star_sq=good.kappa_star_sq - 0.25)
        with pytest.raises(InputError):
            pde_residual_fd(fam, dec.vectors[:, -1], bad, N_M, 5.0)

    def test_px_quantization_enforced(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta = float(dec.etas[-1])
        lam = np.sqrt(1 - N_M ** 2)
        p0 = lam * np.sqrt(eta) / 2
        bad = DeBroglieMomentum(p0=p0, px=1.0, py=0.0, pz=0.0, eta=eta,
                                q=fam.q, n=2, k_index=0,
                                kappa_star_sq=p0 * p0 - 1.0)
        with pytest.raises(InputError):
            pde_residual_fd(fam, dec.vectors[:, -1], bad, N_M, 5.0)


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
        assert not p.ode_passed
        assert not p.dense_passed
        assert not p.sturm_passed
        assert not p.passed

    def test_determinism(self):
        p1 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        p2 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        assert p1 == p2
