"""Gamma algebra and the 4x4 spin-field interaction eigenproblem."""

import numpy as np
import pytest

from incevolkov.errors import InputError
from reference import build_majorana_gammas, spin_interaction_matrix

N_M_REF = 0.7685453911282961    # from the 1 eV / 1.563 eV reference pair


@pytest.fixture(scope="module")
def gammas():
    return build_majorana_gammas()


class TestGammaSet:
    def test_timelike_square(self, gammas):
        assert np.allclose(gammas.anticommutator(0, 0), 2 * np.eye(4), atol=0)

    def test_offdiagonal_anticommutator(self, gammas):
        assert np.max(np.abs(gammas.anticommutator(0, 1))) == 0.0

    def test_full_clifford_relation(self, gammas):
        assert gammas.max_clifford_defect() <= 1e-14

    def test_purely_imaginary(self, gammas):
        assert gammas.max_real_part() <= 1e-14

    def test_spacelike_squares(self, gammas):
        for mu in (1, 2, 3):
            assert np.allclose(gammas.anticommutator(mu, mu),
                               -2 * np.eye(4), atol=0)


class TestSpinEigensystem:
    def test_reference_eigenvalues(self):
        se = spin_interaction_matrix(N_M_REF)
        lam = np.sqrt(1 - N_M_REF ** 2)
        assert lam == pytest.approx(0.6398, abs=1e-4)
        assert np.allclose(se.eigenvalues, [lam, lam, -lam, -lam], atol=1e-12)
        # twofold degeneracy against the generic dense eigensolver
        w = np.sort(np.linalg.eigvals(se.matrix).real)
        assert np.allclose(w, [-lam, -lam, lam, lam], atol=1e-12)

    def test_eigen_residual(self):
        se = spin_interaction_matrix(N_M_REF)
        assert se.max_eigen_residual() < 1e-12

    def test_near_vacuum_limit(self):
        se = spin_interaction_matrix(1.0 - 1e-9)
        assert np.max(np.abs(se.eigenvalues)) < 1e-4

    def test_traceless(self):
        se = spin_interaction_matrix(N_M_REF)
        assert abs(np.trace(se.matrix)) < 1e-13

    def test_matrix_squares_to_lambda_sq(self):
        for n_m in (0.1, 0.5, N_M_REF, 0.99):
            se = spin_interaction_matrix(n_m)
            target = (1 - n_m ** 2) * np.eye(4)
            assert np.max(np.abs(se.matrix @ se.matrix - target)) < 1e-12

    def test_eigenvector_rank(self):
        se = spin_interaction_matrix(N_M_REF)
        assert se.smallest_singular_value() > 1e-10

    def test_scale_independence(self, gammas):
        # the eigenvalue problem is stated per unit k0; building the matrix
        # from k = k0 (1, 0, n_m, 0) and dividing by k0 gives the same M
        g0, g1, g2, _ = gammas.gammas
        k0 = 7.3
        M_scaled = (k0 * g0 - k0 * N_M_REF * g2) @ (-g1) / k0
        se = spin_interaction_matrix(N_M_REF)
        assert np.allclose(M_scaled, se.matrix, atol=1e-15)

    def test_determinism(self):
        a = spin_interaction_matrix(N_M_REF)
        b = spin_interaction_matrix(N_M_REF)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    @pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.3])
    def test_domain(self, bad):
        with pytest.raises(InputError):
            spin_interaction_matrix(bad)
