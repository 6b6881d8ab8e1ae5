"""The oracle layer: ODE residuals, dense/Sturm cross-checks, spacetime FD."""

import math

import numpy as np
import pytest

import incevolkov.spectra as spectra
import incevolkov.verification as verification
from incevolkov.errors import InputError, StructuralError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import TridiagonalOperator, build_operator
from incevolkov.physparams import DeBroglieMomentum
from incevolkov.spectra import solve_spectrum
from incevolkov.verification import (ODE_RESIDUAL_TOL, SAMPLING_SEED,
                                     _batch_residual_maxima,
                                     _charpoly_newton_polish, _ode_samples,
                                     _residual_values_batch,
                                     _residual_values_compensated,
                                     _sample_points, attach_residuals,
                                     dense_oracle_crosscheck,
                                     momentum_for_mode, pde_residual_fd,
                                     pde_stencil, run_grid, run_point,
                                     seeded_angles, sturm_crosscheck)

N_M = 0.7685453911282961


def _solved(kind, n, a):
    fam = SolutionFamily(kind, n)
    return fam, solve_spectrum(build_operator(fam, a))


def _one_mode(fam, a, eta, c):
    """(max |residual|, scale, passed) of one eigenpair under the residual policy."""
    maxima, scales, passed = _batch_residual_maxima(
        _ode_samples(fam, SAMPLING_SEED), a, np.array([eta]),
        np.asarray(c, dtype=float)[:, None])
    return float(maxima[0]), float(scales[0]), bool(passed[0])


def vacuum_null_momentum(r, n_m):
    """Massless on-shell momentum for the a = 0 exact-cancellation check.

    Built so the total plane-wave vector of exp(-i r xi) exp(+i p~.x) is
    null and aligned with the x axis; the time and x stencils of the free
    wave operator then cancel identically at any step size, leaving pure
    rounding noise.
    """
    if r < 1:
        raise InputError("harmonic r must be >= 1")
    if not 0.0 < n_m < 1.0:
        raise InputError(f"refractive index must lie in (0, 1), got {n_m}")
    lam = math.sqrt(1.0 - n_m * n_m)
    return DeBroglieMomentum(
        p0=r * (1.0 + n_m * n_m) / lam, px=-r * lam, py=2.0 * r * n_m / lam,
        pz=0.0, eta=4.0 * r * r, q=2 * r - 1, n=r, k_index=0,
        kappa_star_sq=0.0)


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


class TestOdeResidual:
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
                plain = _residual_values_batch(_ode_samples(fam, SAMPLING_SEED),
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
        samples = _ode_samples(fam, SAMPLING_SEED)
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


class TestDenseCrosscheck:
    def test_reference_case(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0)
        assert dense_oracle_crosscheck([T])[0] < 1e-9

    def test_free_limit_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 5), 0.0)
        assert dense_oracle_crosscheck([T])[0] == 0.0

    def test_exact_dense_eigenvalue_kept(self):
        # dim 1: the raw dense value is exact, a zero pivot freezes the polish
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert dense_oracle_crosscheck([T])[0] == 0.0

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
        assert p.dense_discrepancy < 1e-3
        assert p.failed_checks == ["pde"]

    def test_strong_coupling_stress(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 5), 50.0)
        assert dense_oracle_crosscheck([T])[0] < 1e-8

    def test_dimension_cap(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 101), 1.0)     # dim 202
        with pytest.raises(InputError, match="range limit"):
            dense_oracle_crosscheck([T])

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
        with pytest.raises(InputError):
            dense_oracle_crosscheck(
                [build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, n), 1.0)
                 for n in (1, 2)])


class TestSturmCrosscheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agreement(self, kind):
        T = build_operator(SolutionFamily(kind, 12), 14.0)
        assert sturm_crosscheck([T])[0] < 1e-10

    def test_certified_within_the_primary_share_of_the_gate(self):
        ops = [build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 12), a)
               for a in (0.5, 14.0, 1e10)]
        lo, hi = spectra.gershgorin_bounds(
            np.stack([T.diag for T in ops]),
            np.sqrt(np.stack([T.super_ * T.sub for T in ops])))
        bound = np.maximum(np.abs(lo), np.abs(hi))
        assert np.all(sturm_crosscheck(ops) <= 8 * np.finfo(float).eps * bound)

    def test_dim_one_is_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 14.0)
        assert T.dim == 1 and sturm_crosscheck([T])[0] == 0.0
        # its entry is 0 at a = 1, where the Gershgorin bound B is 0 too
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert T.diag.tolist() == [0.0]
        assert sturm_crosscheck([T], [np.array([1e-6])])[0] == 1e-6

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
    def test_kg_second_order_convergence(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M, k_index=dec.dim)
        [rep] = pde_residual_fd([pde_stencil(fam, N_M)], [dec.vectors[:, -1]],
                                [mom], [5.0])
        assert rep.converged_second_order
        assert abs(rep.observed_order - 2.0) <= 0.2

    def test_dirac_both_branches_converge(self):
        for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS):
            fam, dec = _solved(kind, 2, 5.0)
            mom = momentum_for_mode(fam, float(dec.etas[-1]), N_M, k_index=dec.dim)
            [rep] = pde_residual_fd([pde_stencil(fam, N_M)],
                                    [dec.vectors[:, -1].astype(complex)], [mom],
                                    [5.0])
            assert abs(rep.observed_order - 2.0) <= 0.2, kind

    def test_negative_control_does_not_converge(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta_bad = float(dec.etas[-1]) + 0.01 * (1 + abs(float(dec.etas[-1])))
        mom = momentum_for_mode(fam, eta_bad, N_M, k_index=dec.dim)
        [rep] = pde_residual_fd([pde_stencil(fam, N_M)], [dec.vectors[:, -1]],
                                [mom], [5.0])
        assert rep.observed_order < 1.0
        assert rep.max_residual_half > 1e-6

    def test_wrong_spin_branch_detected(self):
        # feed the +i f eigenvector into the -i f equation at the same eta
        _, dec_plus = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        fam_minus = SolutionFamily(FamilyKind.DIRAC_MINUS, 2)
        mom = momentum_for_mode(fam_minus, float(dec_plus.etas[-1]), N_M)
        [rep] = pde_residual_fd([pde_stencil(fam_minus, N_M)],
                                [dec_plus.vectors[:, -1]], [mom], [5.0])
        assert rep.max_residual_half > 1e-3

    def test_vacuum_exact_cancellation(self):
        # massless null mode of the free equation: the time and x stencils
        # cancel identically, so the residual is rounding noise, independent
        # of the step (the noise scales like eps/h^2, so coarser is cleaner)
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        c = np.array([0.0, 1.0])               # single harmonic exp(-i xi)
        mom = vacuum_null_momentum(1, N_M)
        for h in (1e-2, 2e-2, 4e-2):
            [rep] = pde_residual_fd([pde_stencil(fam, N_M, h=h)], [c], [mom], [0.0])
            assert rep.max_residual < 1e-10

    def test_off_shell_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=good.pz,
                                eta=good.eta, q=good.q, n=good.n,
                                k_index=good.k_index,
                                kappa_star_sq=good.kappa_star_sq + 1.0)
        with pytest.raises(InputError):
            pde_residual_fd([pde_stencil(fam, N_M)], [dec.vectors[:, -1]], [bad],
                            [5.0])

    def test_pz_rejected(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        good = momentum_for_mode(fam, float(dec.etas[-1]), N_M)
        bad = DeBroglieMomentum(p0=good.p0, px=good.px, py=good.py, pz=0.5,
                                eta=good.eta, q=good.q, n=good.n,
                                k_index=good.k_index,
                                kappa_star_sq=good.kappa_star_sq - 0.25)
        with pytest.raises(InputError):
            pde_residual_fd([pde_stencil(fam, N_M)], [dec.vectors[:, -1]], [bad],
                            [5.0])

    def test_px_quantization_enforced(self):
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 2, 5.0)
        eta = float(dec.etas[-1])
        lam = np.sqrt(1 - N_M ** 2)
        p0 = lam * np.sqrt(eta) / 2
        bad = DeBroglieMomentum(p0=p0, px=1.0, py=0.0, pz=0.0, eta=eta,
                                q=fam.q, n=2, k_index=0,
                                kappa_star_sq=p0 * p0 - 1.0)
        with pytest.raises(InputError):
            pde_residual_fd([pde_stencil(fam, N_M)], [dec.vectors[:, -1]], [bad],
                            [5.0])

    @staticmethod
    def _top_mode_point(kind, n, a):
        """(stencil, coefficients, momentum, a) of the check `verify` runs."""
        fam, dec = _solved(kind, n, a)
        top = int(np.nonzero(dec.etas >= 0.0)[0][-1])
        mom = momentum_for_mode(fam, float(dec.etas[top]), N_M, k_index=top + 1)
        h = 5e-3 if a <= 25.0 else 1e-2
        return pde_stencil(fam, N_M, h), dec.vectors[:, top], mom, a

    def test_batch_matches_batches_of_one(self):
        # one dimension group: complex-basis dirac families, real-basis KG
        # families, both steps, and a complex vector on a real basis; each
        # point must get the report it gets alone (repr: exact, NaN-safe)
        points = [self._top_mode_point(kind, n, a)
                  for kind, n in ((FamilyKind.DIRAC_PLUS, 3), (FamilyKind.DIRAC_MINUS, 3),
                                  (FamilyKind.KG_COS_EVEN, 5), (FamilyKind.KG_SIN_ODD, 6))
                  for a in (14.0, 50.0)]
        stencil, c, mom, a = points[4]
        assert stencil.basis.dtype == float and a == 14.0
        points.append((stencil, c * np.exp(0.7j), mom, a))
        batches = {}
        for point in points:
            key = np.result_type(point[0].basis, point[1]), point[0].h
            batches.setdefault(key, []).append(point)
        assert len(batches) == 4
        for batch in batches.values():
            for point, rep in zip(batch, pde_residual_fd(*zip(*batch)), strict=True):
                assert repr(rep) == repr(pde_residual_fd(*zip(point))[0])

    @pytest.mark.parametrize("other", [(FamilyKind.DIRAC_PLUS, 3, 14.0),
                                       (FamilyKind.KG_SIN_ODD, 6, 50.0)])
    def test_mixed_dtype_or_step_rejected(self, other):
        kg = self._top_mode_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        with pytest.raises(InputError, match="one step"):
            pde_residual_fd(*zip(kg, self._top_mode_point(*other)))


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
        # the benchmark's negative control: the Sturm radius is within a
        # factor 2 above the shift
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 5.0, eta_shift=1e-6)
        assert not p.sturm_passed and 1e-6 <= p.sturm_discrepancy < 2e-6

    def test_agreement_gate_scales_with_the_eigenvalues(self):
        # at a = 1e150 the oracles agree to a few ulps of eigenvalues near
        # 5e150 and pass; a shift of 1e138 (2e-13 of them) still fails
        p = run_point(FamilyKind.DIRAC_PLUS, 3, 1e150)
        assert p.dense_passed and p.sturm_passed and p.dense_discrepancy > 1e135
        shifted = run_point(FamilyKind.DIRAC_PLUS, 3, 1e150, eta_shift=1e138)
        assert not shifted.dense_passed and not shifted.sturm_passed

    def test_determinism(self):
        p1 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        p2 = run_point(FamilyKind.KG_COS_EVEN, 5, 14.0)
        assert p1 == p2


def test_grid_matches_points():
    # groups of one dimension mix kinds and couplings, and a family's bases
    # serve all its couplings (a = 14 and 50 take different PDE steps);
    # each report must be the one its point gets alone, in grid order
    # (repr: exact, NaN-safe)
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
    # one ODE sample basis per family and one PDE stencil per (family, h),
    built = {"ode": [], "pde": []}
    ode_samples, stencil = verification._ode_samples, verification.pde_stencil

    def count_ode(family, seed):
        built["ode"].append(family)
        return ode_samples(family, seed)

    def count_pde(family, n_m, h, **kwargs):
        built["pde"].append((family, h))
        return stencil(family, n_m, h, **kwargs)

    # and one spacetime batch per (dimension group, result dtype, h)
    residual = verification.pde_residual_fd
    batches = []

    def count_batches(stencils, coefficients, momenta, couplings):
        batches.append((stencils[0].family.dim,
                        np.result_type(stencils[0].basis, coefficients[0]),
                        stencils[0].h))
        return residual(stencils, coefficients, momenta, couplings)

    monkeypatch.setattr(verification, "_ode_samples", count_ode)
    monkeypatch.setattr(verification, "pde_stencil", count_pde)
    monkeypatch.setattr(verification, "pde_residual_fd", count_batches)
    run_grid(n_max=3, a_values=(0.5, 14.0, 20.0, 50.0))
    families = {SolutionFamily(kind, n) for kind in ALL_KINDS for n in (1, 2, 3)}
    assert sorted(map(repr, built["ode"])) == sorted(map(repr, families))
    assert len(built["pde"]) == len(set(built["pde"]))
    assert {h for _, h in built["pde"]} == {5e-3, 1e-2}
    assert len(batches) == len(set(batches))
    assert {dtype for _, dtype, _ in batches} == {np.dtype(float), np.dtype(complex)}
    assert {h for _, _, h in batches} == {5e-3, 1e-2}


class TestSeededAngles:
    @pytest.mark.parametrize("seed", [0, 1, 0x1CE, 2**32 - 1, 2**32,
                                      2**64 + 5, 2**127 + 3])
    @pytest.mark.parametrize("shape", [32, (64, 3)])
    def test_numpy_stream_bit_for_bit(self, seed, shape):
        expected = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=shape)
        got = seeded_angles(seed, expected.size).reshape(shape)
        assert np.array_equal(got, expected)

    def test_cached_and_read_only(self):
        angles = seeded_angles(SAMPLING_SEED, 32)
        assert seeded_angles(SAMPLING_SEED, 32) is angles
        assert not angles.flags.writeable

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            seeded_angles(-1, 32)
