"""The oracle layer: ODE residuals, dense/Sturm cross-checks, the spacetime check."""

import errno
import functools
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
import incevolkov.operators as operators
from incevolkov.operators import OperatorStack, build_operator, build_stack
from incevolkov.physparams import DeBroglieMomentum
from incevolkov.residual import (ODE_RESIDUAL_TOL, _batch_residual_maxima,
                                 _fourier_residual, attach_residuals)
from incevolkov.spectra import (SpectralDecomposition, min_relative_gaps, solve_spectra,
                                solve_spectrum)
from incevolkov.verification import (_charpoly_newton_polish,
                                     _residual_values_compensated,
                                     dense_oracle_crosscheck,
                                     momentum_for_mode, pde_residual,
                                     pde_stencil, run_grid, run_point,
                                     seeded_angles, sturm_crosscheck)
from reference import dense, hand_built, joined, pde_residual_fd

N_M = 0.7685453911282961
H = 1e-3                        # the step of the finite-difference reference
EPS = np.finfo(float).eps
# the grid of `verify --all`, and a = 50 beside it
ODE_GRID_A = (*verification.DEFAULT_GRID_A_VALUES, 50.0)


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
    etas = _solver_etas(T) + eta_shift
    disc, = dense_oracle_crosscheck(T, etas)
    return disc, bool(disc < sturm_crosscheck(T, etas)[1][0])


def _pde(stencil, families, *points):
    """`pde_residual` with each family's own basis on the stencil."""
    bases = {fam: fam.basis(stencil.z, derivatives=2) for fam in families}
    return pde_residual(stencil, bases, families, *points)


def _one_mode(fam, a, eta, c):
    """(residual bound, scale, passed) of one eigenpair under the residual policy."""
    bounds, scales, passed = _batch_residual_maxima(
        fam, a, np.array([eta]), np.asarray(c, dtype=float)[:, None])
    return float(bounds[0]), float(scales[0]), bool(passed[0])


def _residual_at(fam, a, etas, vectors, z):
    """R(z) of every mode, shape (len(z), modes): the ODE applied to the basis at z."""
    B, Bp, Bpp = fam.basis(z, derivatives=2)
    sin2z, cos2z = np.sin(2.0 * z)[:, None], np.cos(2.0 * z)[:, None]
    f = B @ vectors
    return (Bpp @ vectors + a * sin2z * (Bp @ vectors + 1j * fam.spin_sign * f)
            + (etas - fam.q * a * cos2z) * f)


def _rounding_slack(fam, a, eta, c, z_max):
    """A bound on how far the exact-summation residual at points up to z_max, or
    ||r^||_1 in floating point, can lie from the exact values.

    Every term of either is |c_j| times at most nu_j^2 + |eta| + a (|nu_j| +
    |s| + q) in modulus; a basis value at z carries the rounding of its
    argument, z nu_j (1 + eps), and a few more roundings: 16 eps per term,
    plus eps z_max |nu_j| from the argument.
    """
    nu = fam.nu
    terms = np.abs(c) * (nu * nu + abs(eta) + a * (np.abs(nu) + abs(fam.spin_sign) + fam.q))
    return float(np.sum(terms * (16.0 + z_max * np.abs(nu)))) * EPS


def _fourier_residual_out_of_place(fam, a, eta, c):
    """One mode's r^ from plain expressions, frequency by frequency.

    The terms of `_fourier_residual`, in its order, padded to the dim + 2
    frequencies nu_0 - 2 .. nu_last + 2; a cos or sin kind then adds each
    negative frequency onto its mirror (+ for cos, - for sin) and keeps the
    frequencies above 0 (sin) or from 0 on (cos).
    """
    nu, s, q = fam.nu, fam.spin_sign, fam.q
    w = 0.5 * a * (s - nu)
    h = 0.5 * a * q
    zero = np.zeros(1, dtype=np.result_type(c, float))
    rhat = (np.concatenate([zero, (eta - nu * nu) * c, zero])
            + np.concatenate([(w - h) * c, zero, zero])
            - np.concatenate([zero, zero, (w + h) * c]))
    r0, r1 = fam.window
    mu = fam.z_frequencies(np.arange(r0 - 1, r1 + 2))
    basis = fam._row.basis
    if basis == "exp":
        return rhat
    for j in np.flatnonzero(mu < 0):
        rhat[mu == -mu[j]] += (1 if basis == "cos" else -1) * rhat[j]
    return rhat[mu > 0] if basis == "sin" else rhat[mu >= 0]


def _out_frequencies(fam):
    """The frequencies of the columns of `_fourier_residual`."""
    r0, r1 = fam.window
    mu = fam.z_frequencies(np.arange(r0 - 1, r1 + 2))
    return mu if fam._row.basis == "exp" else mu[1:]


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
    d, b = T.diag[0], (T.super_ * T.sub)[0]
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
    def test_in_place_matches_out_of_place_bit_for_bit(self, kind):
        # every operator of the grid's n range at couplings up to 1e150:
        # equal bits, so equal bounds, scales and verdicts (+ 0.0 maps -0.0,
        # which the padding's zeros turn into +0.0, to +0.0 on both sides)
        for n in range(1, 26):
            fam = SolutionFamily(kind, n)
            for a in (0.0, 0.5, 1.0, 5.0, 14.0, 20.0, 50.0, 1e3, 1e150):
                dec = solve_spectrum(build_operator(fam, a))
                got = _fourier_residual(fam, a, dec.etas, dec.vectors)
                want = np.stack([_fourier_residual_out_of_place(fam, a, eta, c)
                                 for eta, c in zip(dec.etas, dec.vectors.T)])
                assert got.dtype == want.dtype
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes(), (kind, n, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_coefficients_are_the_residuals_fourier_series(self, kind, n):
        # for any vector and eta, sum_mu r^_mu phi_mu(z) is R(z) at every z
        fam = SolutionFamily(kind, n)
        rng = np.random.default_rng(n)
        vectors = rng.normal(size=(fam.dim, 3))
        etas = rng.normal(size=3) * 10.0
        z = np.linspace(0.0, 4.0 * np.pi, 97)
        for a in (0.5, 14.0):
            series = evaluate_basis(fam._row.basis, _out_frequencies(fam), z)[0]
            got = series @ _fourier_residual(fam, a, etas, vectors).T
            want = _residual_at(fam, a, etas, vectors, z)
            scale = np.max(np.abs(want), axis=0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (kind, n, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 0.5, 5.0, 20.0])
    def test_eigenpairs_pass(self, kind, a):
        fam, dec = _solved(kind, 6, a)
        for i in range(dec.dim):
            bound, scale, passed = _one_mode(fam, a, float(dec.etas[i]),
                                             dec.vectors[:, i])
            assert passed, (kind, a, i, bound, scale)

    def test_report_fields(self):
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 2, 5.0)
        eta = float(dec.etas[0])
        _, scale, _ = _one_mode(fam, 5.0, eta, dec.vectors[:, 0])
        assert scale == 1.0 + abs(eta) + 5.0 * fam.dim
        assert SAMPLING_SEED == 0x1CE

    def test_past_double_range_refused(self):
        # the dim-1 eigenpair is exact, but a dim and q a c leave double
        # range: the checker's range, not a failed mode
        fam, dec = _solved(FamilyKind.KG_SIN_ODD, 1, 1e308)
        assert np.isfinite(dec.etas).all() and np.isfinite(dec.vectors).all()
        with pytest.raises(InputError, match=r"^kg-sin-odd n = 1: a = 1e\+308 is past the "
                                             r"range limit of the ODE residual check"):
            _batch_residual_maxima(fam, 1e308, dec.etas, dec.vectors)

    def test_non_finite_modes_fail(self):
        # a NaN coefficient column, or a NaN eta, fails its mode and is not refused
        fam, dec = _solved(FamilyKind.KG_COS_EVEN, 3, 5.0)
        vectors, etas = dec.vectors.copy(), dec.etas.copy()
        vectors[:, 1] = np.nan
        etas[2] = np.nan
        bounds, _, passed = _batch_residual_maxima(fam, 5.0, etas, vectors)
        assert np.isnan(bounds[1:3]).all()
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

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_bound_holds_over_the_compensated_residual(self, kind):
        # sup |R| <= ||r^||_1: of each operator's modes, the one whose
        # sampled maximum comes nearest its bound, summed exactly at 4,096
        # points, lies under the bound plus the rounding of both sides
        z = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for n in range(1, 26):
            for a in (0.5, 14.0, 50.0):
                fam, dec = _solved(kind, n, a)
                bounds, _, _ = _batch_residual_maxima(fam, a, dec.etas, dec.vectors)
                sampled = np.max(np.abs(_residual_at(fam, a, dec.etas, dec.vectors, z)), axis=0)
                slack = [_rounding_slack(fam, a, eta, c, z[-1])
                         for eta, c in zip(dec.etas, dec.vectors.T)]
                i = int(np.argmax(sampled / (bounds + slack)))
                eta, c = float(dec.etas[i]), dec.vectors[:, i]
                comp = np.max(np.abs(_residual_values_compensated(fam, a, eta, c, z)))
                assert comp <= bounds[i] + slack[i], (kind, n, a, i)

    def test_rounding_far_below_the_gate(self):
        # a running-error bound of ||r^||_1 on the grid: each entry of r^
        # rounds at most 6 times (gamma_6 times its terms in absolute
        # value), and the l1 sum of dim + 1 values gamma_(dim+1) times it
        u = EPS / 2.0
        worst = 0.0
        for kind in ALL_KINDS:
            for n in range(1, 26):
                fam = SolutionFamily(kind, n)
                nu = fam.nu
                w = np.abs(0.5 * (fam.spin_sign - nu))
                for a in ODE_GRID_A:
                    dec = solve_spectrum(build_operator(fam, a))
                    bounds, scales, _ = _batch_residual_maxima(fam, a, dec.etas, dec.vectors)
                    terms = np.abs(dec.vectors.T) * (np.abs(dec.etas)[:, None] + nu * nu
                                                     + 2.0 * a * (w + 0.5 * fam.q))
                    error = (6 * u / (1 - 6 * u) * terms.sum(axis=1)
                             + (fam.dim + 1) * u / (1 - (fam.dim + 1) * u) * bounds)
                    worst = max(worst, float(np.max(error / (ODE_RESIDUAL_TOL * scales))))
        assert worst <= 1e-3, worst

    def test_verdict_from_one_batch(self, monkeypatch):
        # mode 78 of this operator lies within 10x of the tolerance; its
        # bound is the policy's alone, no exact re-summation, with the bits
        # it gets in the all-modes batch
        def refuse(*args, **kwargs):
            raise AssertionError("exact re-summation called")

        monkeypatch.setattr(verification, "_residual_values_compensated", refuse)
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 39, 14.0)
        eta, c = float(dec.etas[77]), dec.vectors[:, 77]
        bound, scale, passed = _one_mode(fam, 14.0, eta, c)
        assert passed == (bound < ODE_RESIDUAL_TOL * scale)
        dec2, passed = attach_residuals(dec)
        assert dec2.residuals[77] == bound
        assert passed[77] == (bound < ODE_RESIDUAL_TOL * scale)

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


class TestNegativeControls:
    """Wrong eigenpairs that the residual policy must fail."""

    @pytest.mark.parametrize("kind, null_dim", [(FamilyKind.KG_COS_EVEN, 13),
                                                (FamilyKind.DIRAC_PLUS, 24)])
    def test_blind_spot_of_sample_points_fails(self, kind, null_dim):
        # at n = 300 a vector can vanish at any 288 sample points (the 256
        # equidistant and 32 seeded ones of an earlier check) and still be
        # far from an eigenvector: the sampled residual passes it, r^ not
        a = 1.0
        fam, dec = _solved(kind, 300, a)
        eta, c = float(dec.etas[0]), dec.vectors[:, 0]
        z = np.concatenate([np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False),
                            seeded_angles(SAMPLING_SEED, 32)])
        at_samples = _residual_at(fam, a, np.array([eta]), np.eye(fam.dim), z)
        rows = np.concatenate([at_samples.real, at_samples.imag])
        _, sv, vt = np.linalg.svd(rows)
        rank = int(np.sum(sv > sv[0] * fam.dim * EPS))
        null = vt[rank:]
        assert len(null) >= null_dim
        wrong = c + 0.73 * null[-1]
        bound, scale, passed = _one_mode(fam, a, eta, wrong)
        assert np.max(np.abs(_residual_at(fam, a, np.array([eta]), wrong[:, None], z))) \
            < ODE_RESIDUAL_TOL * scale
        assert not passed and bound > 1e3 * ODE_RESIDUAL_TOL * scale

    @pytest.mark.parametrize("kind, entry, value", [
        (FamilyKind.KG_COS_EVEN, ("sub", 0), lambda T: 0.5 * T.sub[0, 0]),  # the fold's factor 2 lost
        (FamilyKind.KG_COS_ODD, ("diag", 0), lambda T: 1.0),                # the r = 0 fold lost
        (FamilyKind.DIRAC_PLUS, ("super_", 3), lambda T: T.super_[0, 3] * (1 + 1e-6)),
        (FamilyKind.DIRAC_MINUS, ("diag", 4), lambda T: T.diag[0, 4] + 1e-4),
    ])
    def test_operator_with_one_wrong_entry_fails(self, kind, entry, value):
        # r^ reads the ODE, not the operator entries: the eigenpairs of an
        # operator with one entry changed fail it
        T = build_operator(SolutionFamily(kind, 6), 14.0)
        arrays = {name: getattr(T, name)[0].copy() for name in ("diag", "super_", "sub")}
        name, index = entry
        arrays[name][index] = value(T)
        wrong = hand_built(family=T.families[0], a=T.couplings[0], **arrays)
        assert attach_residuals(solve_spectrum(T))[1].all()
        assert not attach_residuals(solve_spectrum(wrong))[1].all()


class TestResidualBlocks:
    """The residual policy judges at most residual._BLOCK_MODES modes at a time."""

    @staticmethod
    def _policy(fam, a, dec, block, monkeypatch):
        monkeypatch.setattr(residual, "_BLOCK_MODES", block)
        return _batch_residual_maxima(fam, a, dec.etas, dec.vectors)

    @pytest.mark.parametrize("kind", [FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS])
    def test_dirac_blocks_bit_identical_to_one_block(self, kind, monkeypatch):
        # dim 200 spans four blocks; every entry of r^ is its own mode's
        fam, block = SolutionFamily(kind, 100), residual._BLOCK_MODES
        assert fam.dim > 3 * block
        for a in (1.0, 14.0, 50.0):
            dec = solve_spectrum(build_operator(fam, a))
            blocked = self._policy(fam, a, dec, block, monkeypatch)
            whole = self._policy(fam, a, dec, fam.dim, monkeypatch)
            for got, want in zip(blocked, whole):
                assert got.tobytes() == want.tobytes(), (kind, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_verdicts_as_one_block(self, kind, monkeypatch):
        # any split of the modes gives the bits, so the verdicts, of one block
        n = 40 if kind.value.startswith("dirac") else 70
        fam = SolutionFamily(kind, n)
        assert fam.dim > residual._BLOCK_MODES
        for a in (1.0, 14.0, 50.0):
            dec = solve_spectrum(build_operator(fam, a))
            one = self._policy(fam, a, dec, fam.dim, monkeypatch)
            for block in (1, 7, residual._BLOCK_MODES):
                got = self._policy(fam, a, dec, block, monkeypatch)
                assert [x.tobytes() for x in got] == [x.tobytes() for x in one], \
                    (kind, a, block)

    def test_peak_memory_a_few_blocks(self):
        # dirac-plus n = 200: all 400 modes at once held a few 400 x 402
        # arrays; a block holds a few (block, dim + 2) arrays
        fam, dec = _solved(FamilyKind.DIRAC_PLUS, 200, 14.0)
        block_bytes = residual._BLOCK_MODES * (fam.dim + 2) * 8
        attach_residuals(dec)
        tracemalloc.start()
        try:
            attach_residuals(dec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * block_bytes


class TestDenseCrosscheck:
    def test_reference_case(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0)
        assert dense_oracle_crosscheck(T, _solver_etas(T))[0] < 1e-9

    def test_free_limit_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 5), 0.0)
        assert dense_oracle_crosscheck(T, _solver_etas(T))[0] == 0.0

    def test_exact_dense_eigenvalue_kept(self):
        # dim 1: the raw dense value is exact, a zero pivot freezes the polish
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert dense_oracle_crosscheck(T, _solver_etas(T))[0] == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.0, 14.0, 1e10])
    def test_polish_matches_scalar_reference(self, kind, a):
        T = build_operator(SolutionFamily(kind, 12), a)
        w = np.sort(np.linalg.eigvals(dense(T)[0]).real)
        polished = _charpoly_newton_polish(T.diag, T.super_ * T.sub, w[None])
        assert np.array_equal(polished[0], _scalar_newton_polish(T, w))

    def test_polish_stack_matches_each_alone(self):
        ops = build_stack(*zip(*((SolutionFamily(kind, 6), a)
                                 for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
                                 for a in (0.0, 20.0))))
        d = ops.diag
        b = ops.super_ * ops.sub
        w = np.sort(np.linalg.eigvals(dense(ops)).real,
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
        assert dense_oracle_crosscheck(T, _solver_etas(T))[0] < 1e-8

    def test_dimension_cap(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 101), 1.0)     # dim 202
        with pytest.raises(InputError, match="range limit"):
            dense_oracle_crosscheck(T, _solver_etas(T))

    def test_complex_spectrum_flagged(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        T = hand_built(family=fam, a=1.0, diag=np.zeros(2),
                       super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError):
            dense_oracle_crosscheck(T, etas=[np.array([0.0, 0.0])])

    def test_complex_spectrum_names_its_operator(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        bad = hand_built(family=fam, a=2.5, diag=np.zeros(2),
                         super_=np.array([1.0]), sub=np.array([-1.0]))
        good = build_operator(fam, 1.0)
        with pytest.raises(StructuralError, match=r"^dirac-plus n=1 a=2\.5: dense "
                           r"eigenvalues have imaginary parts up to 1\.000e\+00"):
            dense_oracle_crosscheck(joined([good, bad]), etas=[np.zeros(2), np.zeros(2)])

    def test_operators_must_share_dimension(self):
        families = [SolutionFamily(FamilyKind.DIRAC_PLUS, n) for n in (1, 2)]
        with pytest.raises(InputError):
            dense_oracle_crosscheck(build_stack(families, [1.0, 1.0]),
                                    [np.zeros(fam.dim) for fam in families])


class TestSturmCrosscheck:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_agreement(self, kind):
        T = build_operator(SolutionFamily(kind, 12), 14.0)
        assert sturm_crosscheck(T, _solver_etas(T))[0][0] < 1e-10

    def test_certified_within_the_primary_share_of_the_gate(self):
        ops = build_stack([SolutionFamily(FamilyKind.KG_COS_EVEN, 12)] * 3, (0.5, 14.0, 1e10))
        lo, hi = verification.gershgorin_bounds(
            ops.diag,
            np.sqrt(ops.super_ * ops.sub))
        bound = np.maximum(np.abs(lo), np.abs(hi))
        radii, _ = sturm_crosscheck(ops, _solver_etas(ops))
        assert np.all(radii <= 8 * np.finfo(float).eps * bound)

    def test_dim_one_is_exact(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 14.0)
        assert T.dim == 1 and sturm_crosscheck(T, _solver_etas(T))[0][0] == 0.0
        # its entry is 0 at a = 1, where the Gershgorin bound B is 0 too
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 1), 1.0)
        assert T.diag[0].tolist() == [0.0]
        assert sturm_crosscheck(T, np.array([[1e-6]]))[0][0] == 1e-6

    def test_stack_gives_each_operator_its_lone_gate(self):
        # every dimension group of the shipped grid, stacked as `verify`
        # stacks it: each operator's gate and radius are the bits it gets
        # alone.  The grid's gates are all the 1e-9 floor, so the stacks
        # also hold couplings whose gates scale with B
        groups = {}
        for kind in ALL_KINDS:
            for n in range(1, verification.DEFAULT_GRID_N_MAX + 1):
                for a in (*verification.DEFAULT_GRID_A_VALUES, 1e10, 1e150):
                    fam = SolutionFamily(kind, n)
                    groups.setdefault(fam.dim, []).append((fam, a))
        for points in groups.values():
            ops = build_stack(*zip(*points))
            etas = _solver_etas(ops)
            radii, gates = sturm_crosscheck(ops, etas)
            for i, (fam, a) in enumerate(points):
                radius, gate = sturm_crosscheck(build_operator(fam, a), etas[i:i + 1])
                assert gate.tobytes() == gates[i:i + 1].tobytes(), (fam.dim, i)
                assert radius.tobytes() == radii[i:i + 1].tobytes(), (fam.dim, i)

    @pytest.mark.parametrize("shift", [0.0, 1e-6], ids=["solved", "shifted"])
    def test_one_bound_gives_the_certificate_and_gate_of_their_own(self, shift):
        # the pass shares one Gershgorin bound between the radii and the
        # gates: the bits of `certified_radii` finding its own bound, and of
        # the gate's formula on the symmetrized stack (shifted etas take
        # the ladder's second pass)
        groups = {}
        for kind in ALL_KINDS:
            for n in range(1, verification.DEFAULT_GRID_N_MAX + 1):
                for a in (*verification.DEFAULT_GRID_A_VALUES, 1e150):
                    fam = SolutionFamily(kind, n)
                    groups.setdefault(fam.dim, []).append((fam, a))
        for points in groups.values():
            ops = build_stack(*zip(*points))
            etas = _solver_etas(ops) + shift
            radii, gates = sturm_crosscheck(ops, etas)
            d, off, _, b = ops.symmetrized
            lo, hi = verification.gershgorin_bounds(d, off)
            want_gates = np.maximum(verification.ORACLE_AGREEMENT_TOL,
                                    16 * EPS * np.maximum(np.abs(lo), np.abs(hi)))
            want_radii = (np.abs(d[:, 0] - etas[:, 0]) if d.shape[1] == 1
                          else verification.certified_radii(d, b, etas))
            assert gates.tobytes() == want_gates.tobytes(), d.shape
            assert radii.tobytes() == want_radii.tobytes(), d.shape

    def test_bad_bond_names_its_operator(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        bad = hand_built(family=fam, a=2.5, diag=np.zeros(2),
                         super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError, match=r"^dirac-plus n=1: bond 0: super\*sub = "
                           r"-1\.0 <= 0 at a = 2\.5"):
            sturm_crosscheck(joined([build_operator(fam, 1.0), bad]),
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

    def test_eta_shift_is_keyword_only(self):
        # a fourth positional argument (a seed, say) shifts no eta
        with pytest.raises(TypeError):
            run_point(FamilyKind.DIRAC_PLUS, 3, 5.0, 462)

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
        # eigh and the spacetime check's products to its workers
        get, set_ = threads
        points = [(kind, 25, a) for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
                  for a in verification.DEFAULT_GRID_A_VALUES]
        before = get()
        try:
            set_(2)
            threaded = verification._check_round.__wrapped__(points, 0.0)
        finally:
            set_(before)
        assert repr(threaded) == repr(verification._check_round(points, 0.0))


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
    # each of the five basis sets once on the stencil and nowhere else (the
    # ODE residual reads no basis), one stencil per round, one spacetime
    # batch per (dimension group, result dtype), and one solve and one
    # Sturm pass per dimension group
    evaluated, stencils, batches, solves, sturms = [], [], [], [], []
    stencil = verification.pde_stencil
    residual = verification.pde_residual
    solve, sturm = verification.solve_spectra, verification.sturm_crosscheck

    def count_evaluate(fn, nu, z, derivatives=0):
        where = "stencil" if any(z is st.z for st in stencils) else "elsewhere"
        evaluated.append(((fn, float(nu[0] / 2.0 % 1.0)), where, derivatives))
        return evaluate_basis(fn, nu, z, derivatives)

    def count_stencils(n_m):
        stencils.append(stencil(n_m))
        return stencils[-1]

    def count_batches(stencil, bases, families, coefficients, momenta, couplings):
        batches.append((families[0].dim, np.result_type(bases[families[0]][0], coefficients[0])))
        return residual(stencil, bases, families, coefficients, momenta, couplings)

    def count_solves(ops):
        solves.append(ops.dim)
        return solve(ops)

    def count_sturms(ops, etas):
        sturms.append(ops.dim)
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
    assert sorted(evaluated, key=repr) == sorted([(key, "stencil", 2) for key in sets], key=repr)
    assert len(stencils) == 1
    dims = {SolutionFamily(kind, n).dim for kind in ALL_KINDS for n in (1, 2, 3)}
    assert sorted(solves) == sorted(sturms) == sorted(dims)
    assert len(batches) == len(set(batches))
    assert {dtype for _, dtype in batches} == {np.dtype(float), np.dtype(complex)}
    # run_point is a round of one: its own set, once per use
    evaluated.clear()
    stencils.clear()
    run_point(FamilyKind.DIRAC_MINUS, 3, 50.0)
    assert evaluated == [(("exp", 0.0), "stencil", 2)]
    assert len(stencils) == 1


def _grid_points(a_values=verification.DEFAULT_GRID_A_VALUES, n_max=25):
    """The (kind, n, a) points of `run_grid`, in its order."""
    return [(kind, n, float(a)) for kind in sorted(ALL_KINDS, key=lambda k: k.value)
            for n in range(1, n_max + 1) for a in a_values]


def _round(monkeypatch, cpus, points, eta_shift=0.0):
    """`_check_round` of points as a host with `cpus` usable CPUs runs it."""
    monkeypatch.setattr(forking, "usable_cpus", lambda: cpus)
    return verification._check_round(points, eta_shift)


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
        # no process or no memory to fork: the child's share runs in this
        # process, with the reports of one process; any other refusal
        # propagates; neither leaves a descriptor open
        points = _grid_points((14.0,), n_max=2)
        monkeypatch.setattr(forking, "may_fork", lambda: False)
        alone = repr(verification._check_round(points, 0.0))
        monkeypatch.undo()
        refused = []

        def no_process():
            refused.append(code)
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(forking, "usable_cpus", lambda: 2)
        monkeypatch.setattr(forking.os, "fork", no_process)
        before = len(os.listdir("/proc/self/fd"))
        for code in (errno.EAGAIN, errno.ENOMEM):
            assert repr(_round(monkeypatch, 2, points)) == alone
        code = errno.EPERM
        with pytest.raises(OSError, match=os.strerror(errno.EPERM)):
            _round(monkeypatch, 2, points)
        assert refused == [errno.EAGAIN, errno.ENOMEM, errno.EPERM]
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


def _bits(values) -> list:
    """Each array's bytes: equal lists mean equal bits, signed zeros and NaNs included."""
    return [np.asarray(v).tobytes() for v in values]


class TestFamilyStacks:
    """A dimension group's per-family stacks give each point its lone bits."""

    @pytest.mark.parametrize("a_values", [verification.DEFAULT_GRID_A_VALUES, (50.0,), (1e150,)],
                             ids=["grid", "a50", "a1e150"])
    def test_ode_stack_matches_each_point(self, a_values):
        # every (dimension group, family) of the round: one call with a
        # coupling per mode against one call per point
        for kind in ALL_KINDS:
            for n in range(1, 26):
                fam = SolutionFamily(kind, n)
                decs = solve_spectra(build_stack([fam] * len(a_values), a_values))
                stacked = _batch_residual_maxima(
                    fam, np.repeat(a_values, fam.dim), np.concatenate([d.etas for d in decs]),
                    np.hstack([d.vectors for d in decs]))
                alone = [np.concatenate(parts) for parts in zip(
                    *(_batch_residual_maxima(fam, a, d.etas, d.vectors)
                      for a, d in zip(a_values, decs)))]
                assert _bits(stacked) == _bits(alone), (kind, n)

    def test_ode_stack_past_range_names_its_first_coupling(self):
        fam = SolutionFamily(FamilyKind.KG_COS_ODD, 1)
        a_values = (14.0, 1.7e308, 1e308)
        decs = solve_spectra(build_stack([fam] * len(a_values), a_values))
        with pytest.raises(InputError) as alone:
            _batch_residual_maxima(fam, 1.7e308, decs[1].etas, decs[1].vectors)
        with pytest.raises(InputError) as stacked:
            _batch_residual_maxima(fam, np.array(a_values), np.concatenate([d.etas for d in decs]),
                                   np.hstack([d.vectors for d in decs]))
        assert str(stacked.value) == str(alone.value)
        assert "a = 1.6999999999999999e+308 is past the range limit" in str(alone.value)

    def test_first_point_past_range_in_group_order_wins(self, monkeypatch):
        # one dim-1 group: kg-cos-odd's stack runs first and is refused at
        # its second point, but the group's first point past range is
        # kg-sin-odd's, which is the error of the points run one by one
        points = [(FamilyKind.KG_COS_ODD, 1, 14.0), (FamilyKind.KG_SIN_ODD, 1, 1e308),
                  (FamilyKind.KG_COS_ODD, 1, 1.7e308), (FamilyKind.KG_SIN_EVEN, 1, 1e308)]
        errors = []
        for kind, n, a in points:
            try:
                run_point(kind, n, a)
            except InputError as exc:
                errors.append(str(exc))
        assert len(errors) == 2 and errors[0].startswith("kg-sin-odd n = 1: a = 1e+308 ")
        refused = []

        def record(fam, a, *args):
            try:
                return _batch_residual_maxima(fam, a, *args)
            except InputError:
                refused.append((fam.kind, np.shape(a)))
                raise

        monkeypatch.setattr(verification, "_batch_residual_maxima", record)
        with pytest.raises(InputError) as info:
            verification._check_round(points, 0.0)
        assert str(info.value) == errors[0]
        assert refused[0] == (FamilyKind.KG_COS_ODD, (2,))     # the family stack first

    def test_min_relative_gaps_match_each_decomposition(self):
        rng = np.random.default_rng(5)
        stacks = [np.sort(rng.normal(size=(6, 5)) * 10.0, axis=1),
                  np.array([[2.0, 2.0, 2.0], [-1.0, 0.0, 0.0], [0.0, 1.0, np.nan],
                            [-np.inf, 0.0, 1.0], [1.0, 1.0, 3.0]]),   # zero spread, a tie
                  np.array([[3.0], [0.0], [np.nan]]),                   # dim 1
                  np.stack([dec.etas for dec in solve_spectra(build_stack(
                      [SolutionFamily(FamilyKind.DIRAC_PLUS, 25)]
                      * len(verification.DEFAULT_GRID_A_VALUES),
                      verification.DEFAULT_GRID_A_VALUES))])]
        for etas in stacks:
            dim = etas.shape[1]
            with np.errstate(invalid="ignore"):
                got = min_relative_gaps(etas)
            assert got.shape == (len(etas),)
            for row, gap in zip(etas, got.tolist()):
                dec = SpectralDecomposition(family=SolutionFamily(FamilyKind.KG_SIN_ODD, dim),
                                            a=1.0, etas=row.copy(), vectors=np.eye(dim),
                                            k_labels=np.arange(1, dim + 1))
                spread = float(row[-1] - row[0])
                with np.errstate(invalid="ignore"):
                    want = (math.inf if dim < 2 or spread == 0.0
                            else float(np.min(np.diff(row)) / spread))
                assert repr(gap) == repr(dec.min_relative_gap) == repr(want), row

    def test_round_builds_and_judges_once_per_group_family(self, monkeypatch):
        # a default round: one `_entries` evaluation and one residual call
        # per (dimension group, family), 150 and not 900, and one
        # symmetrization per dimension group, shared by the solve and Sturm
        entries, odes, symmetrized = [], [], []
        build, judge = operators._entries, verification._batch_residual_maxima
        symmetrize = OperatorStack.__dict__["symmetrized"].func

        def count_entries(fam, a, r):
            entries.append((fam, np.shape(a)))
            return build(fam, a, r)

        def count_odes(fam, a, *args):
            odes.append((fam, np.shape(a)))
            return judge(fam, a, *args)

        def count_symmetrized(stack):
            symmetrized.append(stack.dim)
            return symmetrize(stack)

        kept = functools.cached_property(count_symmetrized)
        kept.__set_name__(OperatorStack, "symmetrized")
        monkeypatch.setattr(operators, "_entries", count_entries)
        monkeypatch.setattr(verification, "_batch_residual_maxima", count_odes)
        monkeypatch.setattr(OperatorStack, "symmetrized", kept)
        monkeypatch.setattr(forking, "usable_cpus", lambda: 1)
        assert run_grid().all_passed
        families = [SolutionFamily(kind, n) for kind in ALL_KINDS for n in range(1, 26)]
        couplings = len(verification.DEFAULT_GRID_A_VALUES)
        assert len(entries) == len(odes) == len(families) == 150
        assert sorted(entries, key=repr) == sorted(((fam, (couplings, 1)) for fam in families),
                                                   key=repr)
        assert sorted(odes, key=repr) == sorted(
            ((fam, (couplings * fam.dim,)) for fam in families), key=repr)
        assert sorted(symmetrized) == sorted({fam.dim for fam in families})


def test_shared_bases_carry_each_familys_bits():
    # every family of the grid's n range: its columns of the shared sets on
    # the stencil are the bits of its own basis, signed zeros included
    fams = [SolutionFamily(kind, n) for kind in ALL_KINDS for n in range(1, 26)]
    stencil = pde_stencil(N_M)
    on_stencil = shared_bases(fams, stencil.z, derivatives=2)
    for fam in fams:
        for got, want in zip(on_stencil[fam], fam.basis(stencil.z, derivatives=2), strict=True):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), fam


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
