"""Primary eigensolver, symmetrization and the Sturm bisection oracle."""

import numpy as np
import pytest

from incevolkov.errors import InputError, OracleError, StructuralError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import (TridiagonalOperator, build_dirac_operator,
                                  build_kg_operator, build_operator)
from incevolkov.spectra import (minor_ratios, solve_spectrum,
                                sturm_bisection_oracle, symmetrize)


def _dense_similarity(T, scale):
    return np.diag(scale) @ T.to_dense() @ np.diag(1.0 / scale)


class TestSymmetrize:
    def test_diagonal_operator_unchanged(self):
        T = build_dirac_operator(2, 0.0)
        d, e, scale = symmetrize(T)
        assert np.array_equal(d, T.diag)
        assert np.all(e == 0.0)
        assert np.all(scale == 1.0)

    def test_dirac_n1_already_symmetric(self):
        T = build_dirac_operator(1, 4.2)
        d, e, scale = symmetrize(T)
        assert np.all(scale == 1.0)
        assert e[0] == pytest.approx(T.super_[0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_similarity_identity(self, kind):
        T = build_operator(SolutionFamily(kind, 6), 9.0)
        d, e, scale = symmetrize(T)
        S = np.diag(d)
        if T.dim > 1:
            S += np.diag(e, 1) + np.diag(e, -1)
        assert np.max(np.abs(S - _dense_similarity(T, scale))) < 1e-13

    def test_random_valid_operator(self):
        rng = np.random.default_rng(7)
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 4)
        for _ in range(20):
            dim = 8
            T = TridiagonalOperator(
                family=fam, a=1.0,
                diag=rng.normal(size=dim),
                super_=rng.uniform(0.1, 2.0, size=dim - 1),
                sub=rng.uniform(0.1, 2.0, size=dim - 1))
            d, e, scale = symmetrize(T)
            S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert np.max(np.abs(S - _dense_similarity(T, scale))) < 1e-13

    def test_sign_flip_rejected(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        T = TridiagonalOperator(family=fam, a=1.0, diag=np.zeros(2),
                                super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError):
            symmetrize(T)


class TestSolveSpectrum:
    def test_free_limit(self):
        dec = solve_spectrum(build_dirac_operator(1, 0.0))
        assert np.array_equal(dec.etas, [0.0, 4.0])

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 14.0])
    def test_dirac_closed_form(self, a):
        dec = solve_spectrum(build_dirac_operator(1, a))
        expected = np.array([2 - np.sqrt(4 + a * a), 2 + np.sqrt(4 + a * a)])
        assert np.allclose(dec.etas, expected, atol=1e-12)

    def test_kg_closed_form_a3(self):
        dec = solve_spectrum(build_kg_operator(FamilyKind.KG_COS_EVEN, 1, 3.0))
        expected = np.array([2 - 2 * np.sqrt(10), 2 + 2 * np.sqrt(10)])
        assert np.allclose(dec.etas, expected, atol=1e-12)

    def test_reference_spectra_cardinality(self):
        dec = solve_spectrum(build_dirac_operator(20, 14.0))
        assert dec.dim == 40
        assert np.all(np.diff(dec.etas) >= 0.0)
        dec = solve_spectrum(build_kg_operator(FamilyKind.KG_COS_EVEN, 20, 14.0))
        assert dec.dim == 21
        assert dec.gaps_pass()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 25])
    def test_count_matches_dimension(self, kind, n):
        fam = SolutionFamily(kind, n)
        dec = solve_spectrum(build_operator(fam, 5.0))
        assert dec.dim == fam.dim
        assert len(dec.etas) == fam.dim
        assert dec.vectors.shape == (fam.dim, fam.dim)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalization_and_sign(self, kind):
        dec = solve_spectrum(build_operator(SolutionFamily(kind, 9), 14.0))
        norms = np.linalg.norm(dec.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        for k in range(dec.dim):
            j = np.argmax(np.abs(dec.vectors[:, k]))
            assert dec.vectors[j, k] > 0.0

    def test_weighted_orthogonality(self):
        dec = solve_spectrum(build_dirac_operator(12, 14.0))
        Y = dec.vectors * dec.scale[:, None]
        Y = Y / np.linalg.norm(Y, axis=0)
        G = Y.T @ Y - np.eye(dec.dim)
        assert np.max(np.abs(G)) < 1e-10

    def test_determinism(self):
        a = solve_spectrum(build_dirac_operator(15, 14.0))
        b = solve_spectrum(build_dirac_operator(15, 14.0))
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.vectors, b.vectors)

    def test_k_labels(self):
        dec = solve_spectrum(build_dirac_operator(3, 2.0))
        assert list(dec.k_labels) == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(dec.vector(2), dec.vectors[:, 1])
        with pytest.raises(InputError):
            dec.vector(7)


class TestMinorRatios:
    @pytest.mark.parametrize("a", [0.5, 3.0, 14.0])
    def test_negative_count_brackets_closed_form(self, a):
        T = build_dirac_operator(1, a)
        root = np.sqrt(4.0 + a * a)
        shifts = np.array([2.0 - root - 1.0, 2.0, 2.0 + root + 1.0])
        count = sum(q < 0 for q in minor_ratios(T.diag, T.super_ * T.sub, shifts))
        assert list(count) == [0, 1, 2]

    def test_zero_pivot_at_free_limit(self):
        T = build_dirac_operator(3, 0.0)
        x = T.diag[2]
        ratios = [q[0] for q in
                  minor_ratios(T.diag, T.super_ * T.sub, np.array([x]))]
        assert ratios[2] == 0.0
        assert np.all(np.isfinite(ratios))
        assert ratios[3:] == list(T.diag[3:] - x)


class TestSturmOracle:
    def test_diagonal_case(self):
        w = sturm_bisection_oracle(np.array([0.0, 4.0]), np.array([0.0]))
        assert np.allclose(w, [0.0, 4.0], atol=1e-11)

    def test_closed_form_2x2(self):
        T = build_dirac_operator(1, 3.0)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d, e, tol=1e-12)
        assert np.allclose(w, [2 - np.sqrt(13), 2 + np.sqrt(13)], atol=1e-11)

    def test_against_primary_solver_stress(self):
        T = build_dirac_operator(25, 20.0)
        dec = solve_spectrum(T)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d, e, tol=1e-12)
        assert np.max(np.abs(w - dec.etas)) < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 14.0, 20.0])
    def test_agreement_at_largest_window(self, kind, a):
        # the n = 25 corner is the worst conditioned of the shipped grid
        T = build_operator(SolutionFamily(kind, 25), a)
        dec = solve_spectrum(T)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d, e, tol=1e-12)
        assert np.max(np.abs(w - dec.etas)) < 1e-10

    def test_iteration_budget(self):
        T = build_dirac_operator(5, 10.0)
        d, e, _ = symmetrize(T)
        with pytest.raises(OracleError):
            sturm_bisection_oracle(d, e, tol=1e-12, max_iterations=3)

    def test_bad_tol(self):
        with pytest.raises(InputError):
            sturm_bisection_oracle(np.array([1.0]), np.array([]), tol=0.0)


class TestGapDiagnostics:
    def test_kg_gaps_clear_threshold(self):
        dec = solve_spectrum(build_kg_operator(FamilyKind.KG_COS_EVEN, 20, 14.0))
        assert dec.min_relative_gap > 1e-8

    def test_dirac_pairing_collapses_in_double(self):
        # high-lying pairs of the spin-1/2 spectrum split by less than
        # double precision can represent (~1e-16 absolute at n=20, a=14,
        # established once with 60-digit bisection)
        dec = solve_spectrum(build_dirac_operator(20, 14.0))
        assert dec.min_relative_gap < 1e-12
