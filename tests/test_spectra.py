"""Primary eigensolver, symmetrization and the Sturm bisection oracle."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from incevolkov.errors import InputError, OracleError, StructuralError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import TridiagonalOperator, build_operator
import incevolkov.spectra as spectra
from incevolkov.spectra import (MAX_SOLVE_DIM, minor_ratios, solve_spectrum,
                                sturm_bisection_oracle, symmetrize)
from incevolkov.verification import DEFAULT_GRID_A_VALUES, STURM_TOL


def lockstep_reference(diag, offdiag, tol=1e-11, max_iterations=250):
    """Plain Sturm bisection, every matrix from level 0 in one lockstep loop.

    The oracle as it was before its guided pass: the reference that the
    guided oracle must match bit for bit, errors included.
    """
    d, e = np.asarray(diag, dtype=float), np.asarray(offdiag, dtype=float)
    batch, nd = d.shape
    if nd <= 1:
        return d.copy()
    eabs = np.abs(e)
    radius = np.pad(eabs, ((0, 0), (1, 0))) + np.pad(eabs, ((0, 0), (0, 1)))
    lo_bound = np.min(d - radius, axis=1)
    hi_bound = np.max(d + radius, axis=1)
    span = np.maximum(hi_bound - lo_bound, 1.0)
    tols = np.maximum(tol, 8 * np.finfo(float).eps
                      * np.maximum(np.abs(lo_bound), np.abs(hi_bound)))
    lo = np.repeat((lo_bound - 1e-3 * span)[:, None], nd, axis=1)
    hi = np.repeat((hi_bound + 1e-3 * span)[:, None], nd, axis=1)
    e2 = e * e
    ks = np.arange(1, nd + 1)
    out = np.empty_like(d)
    live = np.arange(batch)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        count = np.zeros(mid.shape, dtype=np.int64)
        for q in minor_ratios(d, e2, mid):
            count += q < 0
        move_down = count >= ks
        hi = np.where(move_down, mid, hi)
        lo = np.where(move_down, lo, mid)
        done = np.max(hi - lo, axis=1) < tols
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            if not keep.any():
                return out
            live, d, e2, tols, lo, hi = (
                arr[keep] for arr in (live, d, e2, tols, lo, hi))
    raise OracleError(
        f"Sturm bisection did not reach tol {tols[0]:.3g} in {max_iterations} "
        f"iterations (widest bracket {np.max(hi[0] - lo[0]):.3g})",
        index=int(live[0]))


@pytest.fixture(scope="module")
def grid_stacks():
    """(diag, offdiag, etas, lockstep result) per dimension of the 900-point grid."""
    groups = {}
    for kind in ALL_KINDS:
        for n in range(1, 26):
            for a in DEFAULT_GRID_A_VALUES:
                T = build_operator(SolutionFamily(kind, n), float(a))
                d, e, _ = symmetrize(T)
                groups.setdefault(T.dim, []).append((d, e, solve_spectrum(T).etas))
    stacks = []
    for rows in groups.values():
        d, e, etas = (np.stack(part) for part in zip(*rows))
        stacks.append((d, e, etas, lockstep_reference(d, e, tol=STURM_TOL)))
    return stacks


# guess sets for the oracle, from the etas of the primary solver
GUESSES = {
    "etas": lambda etas, rng: etas,
    "shifted": lambda etas, rng: etas + 1e-6,
    "zeros": lambda etas, rng: np.zeros_like(etas),
    "nan": lambda etas, rng: np.full_like(etas, np.nan),
    "reversed": lambda etas, rng: etas[:, ::-1],
    "random": lambda etas, rng: rng.normal(scale=50.0, size=etas.shape),
    "none": lambda etas, rng: None,
}


def _bisection_outcome(oracle, *args, **kwargs):
    try:
        return oracle(*args, **kwargs)
    except OracleError as exc:
        return str(exc), exc.index


def loop_symmetrize(T):
    """Bond-by-bond symmetrization: the reference for `symmetrize`."""
    scale = np.ones(T.dim)
    off = np.zeros(max(T.dim - 1, 0))
    for i in range(T.dim - 1):
        p = float(T.super_[i]) * float(T.sub[i])
        if p == np.inf:
            raise InputError(f"bond {i}: super*sub overflows at a = {T.a!r}; "
                             "the coupling is too large for double precision")
        if p > 0.0:
            off[i] = np.sqrt(p)
            scale[i + 1] = scale[i] * np.sqrt(T.super_[i] / T.sub[i])
        elif T.super_[i] == 0.0 and T.sub[i] == 0.0:
            scale[i + 1] = scale[i]
        elif p == 0.0 and np.sign(T.super_[i]) == np.sign(T.sub[i]):
            raise InputError(f"bond {i}: super*sub underflows at a = {T.a!r}; "
                             "the coupling is too small for double precision")
        else:
            raise StructuralError(f"bond {i}: super*sub = {p!r} <= 0 at a = {T.a}; "
                                  "operator is not symmetrizable (wrong recurrence?)")
    return T.diag.copy(), off, scale


def _symmetrize_outcome(fn, T):
    try:
        return fn(T)
    except (InputError, StructuralError) as exc:
        return type(exc), str(exc)


def _dense_similarity(T, scale):
    return np.diag(scale) @ T.to_dense() @ np.diag(1.0 / scale)


class TestSymmetrize:
    def test_diagonal_operator_unchanged(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 2), 0.0)
        d, e, scale = symmetrize(T)
        assert np.array_equal(d, T.diag)
        assert np.all(e == 0.0)
        assert np.all(scale == 1.0)

    def test_dirac_n1_already_symmetric(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 4.2)
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

    def test_underflowing_bond_is_input_error(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        for sign in (1.0, -1.0):
            T = TridiagonalOperator(family=fam, a=1e-200, diag=np.zeros(2),
                                    super_=np.array([sign * 1e-200]),
                                    sub=np.array([sign * 1e-200]))
            with pytest.raises(InputError, match=r"^bond 0: super\*sub underflows "
                                                 r"at a = 1e-200"):
                symmetrize(T)
        T = TridiagonalOperator(family=fam, a=1e-200, diag=np.zeros(2),
                                super_=np.array([1e-200]), sub=np.array([-1e-200]))
        with pytest.raises(StructuralError):
            symmetrize(T)


    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_loop_reference(self, kind):
        for n in (1, 2, 7, 25, 200):
            for a in (*DEFAULT_GRID_A_VALUES, 1e-160, 1e150, 1e160):
                T = build_operator(SolutionFamily(kind, n), a)
                got, expected = (_symmetrize_outcome(fn, T)
                                 for fn in (symmetrize, loop_symmetrize))
                if isinstance(expected[0], type):
                    assert got == expected
                else:
                    assert all(np.array_equal(x, y) for x, y in zip(got, expected))

    @pytest.mark.parametrize("bonds, error, bond", [
        ([(1.0, 2.0), (0.0, 0.0), (1.0, -1.0), (1e200, 1e200)], StructuralError, 2),
        ([(1.0, 2.0), (1e200, 1e200), (1.0, -1.0)], InputError, 1),
        ([(1e-200, 1e-200), (1e200, 1e200)], InputError, 0),
        ([(2.0, 1.0), (0.0, 1.0)], StructuralError, 1),
        ([(2.0, 1.0), (np.nan, 1.0)], StructuralError, 1),
    ])
    def test_first_offending_bond_named(self, bonds, error, bond):
        sup, sub = (np.array(part) for part in zip(*bonds))
        T = TridiagonalOperator(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a=1.0,
                                diag=np.zeros(len(bonds) + 1), super_=sup, sub=sub)
        with pytest.raises(error, match=rf"^bond {bond}: ") as info:
            symmetrize(T)
        assert _symmetrize_outcome(loop_symmetrize, T) == (error, str(info.value))

    def test_zero_bond_keeps_scale(self):
        T = TridiagonalOperator(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a=1.0,
                                diag=np.zeros(4), super_=np.array([4.0, 0.0, 9.0]),
                                sub=np.array([1.0, -0.0, 1.0]))
        d, e, scale = symmetrize(T)
        assert scale.tolist() == [1.0, 2.0, 2.0, 6.0]
        assert e.tolist() == [2.0, 0.0, 3.0] and not np.signbit(e[1])


class TestSolveSpectrum:
    def test_free_limit(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 0.0))
        assert np.array_equal(dec.etas, [0.0, 4.0])

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0, 14.0])
    def test_dirac_closed_form(self, a):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a))
        expected = np.array([2 - np.sqrt(4 + a * a), 2 + np.sqrt(4 + a * a)])
        assert np.allclose(dec.etas, expected, atol=1e-12)

    def test_kg_closed_form_a3(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 1), 3.0))
        expected = np.array([2 - 2 * np.sqrt(10), 2 + 2 * np.sqrt(10)])
        assert np.allclose(dec.etas, expected, atol=1e-12)

    def test_reference_spectra_cardinality(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0))
        assert dec.dim == 40
        assert np.all(np.diff(dec.etas) >= 0.0)
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 20), 14.0))
        assert dec.dim == 21
        assert dec.min_relative_gap > 1e-8

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 5, 13, 25])
    def test_count_matches_dimension(self, kind, n):
        fam = SolutionFamily(kind, n)
        dec = solve_spectrum(build_operator(fam, 5.0))
        assert dec.dim == fam.dim
        assert len(dec.etas) == fam.dim
        assert dec.vectors.shape == (fam.dim, fam.dim)

    def test_vectors_fortran_ordered(self):
        # the ODE residual's summation order, and so its last bits, follows this layout
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 9), 14.0))
        assert dec.vectors.flags.f_contiguous

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_normalization_and_sign(self, kind):
        dec = solve_spectrum(build_operator(SolutionFamily(kind, 9), 14.0))
        norms = np.linalg.norm(dec.vectors, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-12)
        for k in range(dec.dim):
            j = np.argmax(np.abs(dec.vectors[:, k]))
            assert dec.vectors[j, k] > 0.0

    def test_unit_norm_where_column_norms_overflow(self):
        # dirac n = 516 is the smallest n at which some back-transformed
        # columns' squares overflow; they once came out all zero
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 516), 1.0)
        _, _, scale = symmetrize(T)
        assert 1.0 / scale.min() > 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = solve_spectrum(T)
        assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0, atol=1e-12)

    def test_weighted_orthogonality(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 12), 14.0))
        Y = dec.vectors * dec.scale[:, None]
        Y = Y / np.linalg.norm(Y, axis=0)
        G = Y.T @ Y - np.eye(dec.dim)
        assert np.max(np.abs(G)) < 1e-10

    def test_determinism(self):
        a = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 15), 14.0))
        b = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 15), 14.0))
        assert np.array_equal(a.etas, b.etas)
        assert np.array_equal(a.vectors, b.vectors)

    def test_k_labels(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 3), 2.0))
        assert list(dec.k_labels) == [1, 2, 3, 4, 5, 6]
        assert np.array_equal(dec.vector(2), dec.vectors[:, 1])
        with pytest.raises(InputError):
            dec.vector(7)

    def test_dimension_cap_checked_first(self, monkeypatch):
        # the first dimension above the cap: refused before symmetrize or
        # the dense matrix allocate anything of size dim
        def refuse(*args, **kwargs):
            raise AssertionError("solve_spectrum went past its dimension cap")

        monkeypatch.setattr(spectra, "symmetrize", refuse)
        T = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, MAX_SOLVE_DIM), 1.0)
        assert T.dim == MAX_SOLVE_DIM + 1
        with pytest.raises(InputError, match="range limit"):
            solve_spectrum(T)


class TestMinorRatios:
    @pytest.mark.parametrize("a", [0.5, 3.0, 14.0])
    def test_negative_count_brackets_closed_form(self, a):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a)
        root = np.sqrt(4.0 + a * a)
        shifts = np.array([2.0 - root - 1.0, 2.0, 2.0 + root + 1.0])
        count = sum(q < 0 for q in minor_ratios(T.diag[None], (T.super_ * T.sub)[None],
                                                shifts[None]))
        assert count.tolist() == [[0, 1, 2]]

    def test_zero_pivot_at_free_limit(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 3), 0.0)
        x = T.diag[2]
        ratios = [q[0, 0] for q in
                  minor_ratios(T.diag[None], (T.super_ * T.sub)[None], np.array([[x]]))]
        assert ratios[2] == 0.0
        assert np.all(np.isfinite(ratios))
        assert ratios[3:] == list(T.diag[3:] - x)


    @given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 9)),
                      elements=st.floats(-1e6, 1e6, width=64)),
           st.floats(0.0, 1e6, width=64))
    def test_counts_at_infinity(self, d, bond):
        # every eigenvalue lies below +inf and none below -inf
        b = np.full((d.shape[0], d.shape[1] - 1), bond)
        x = np.array([[-np.inf, np.inf]] * d.shape[0])
        count = sum(q < 0 for q in minor_ratios(d, b, x))
        assert np.array_equal(count, np.array([[0, d.shape[1]]] * d.shape[0]))

    def test_nan_ratio_does_not_hide_a_zero_pivot(self):
        # the zero pivot of the first matrix is clamped next to a NaN ratio
        d = np.array([[0.0, 0.0], [np.nan, 0.0]])
        b = np.ones((2, 1))
        x = np.zeros((2, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stacked = list(minor_ratios(d, b, x))[1][0, 0]
        assert stacked == 1.0 / (np.finfo(float).tiny * 1e4)

    def test_stack_keeps_each_pivmin(self):
        # an exact zero pivot is clamped to -pivmin of its own matrix, which
        # scales with that matrix's max |b| and not with the stack's
        d = np.zeros((2, 2))
        b = np.array([[1.0], [1e4]])
        x = np.zeros((2, 1))
        stacked = list(minor_ratios(d, b, x))[1][:, 0]
        alone = [list(minor_ratios(d[i:i + 1], b[i:i + 1], x[i:i + 1]))[1][0, 0]
                 for i in range(2)]
        assert stacked.tolist() == alone
        assert alone[0] == 1.0 / (np.finfo(float).tiny * 1e4)


class TestSturmOracle:
    def test_diagonal_case(self):
        w = sturm_bisection_oracle(np.array([[0.0, 4.0]]), np.array([[0.0]]))
        assert np.allclose(w, [[0.0, 4.0]], atol=1e-11)

    def test_closed_form_2x2(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 3.0)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d[None], e[None], tol=1e-12)[0]
        assert np.allclose(w, [2 - np.sqrt(13), 2 + np.sqrt(13)], atol=1e-11)

    def test_against_primary_solver_stress(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 25), 20.0)
        dec = solve_spectrum(T)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d[None], e[None], tol=1e-12)[0]
        assert np.max(np.abs(w - dec.etas)) < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 14.0, 20.0])
    def test_agreement_at_largest_window(self, kind, a):
        # the n = 25 corner is the worst conditioned of the shipped grid
        T = build_operator(SolutionFamily(kind, 25), a)
        dec = solve_spectrum(T)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d[None], e[None], tol=1e-12)[0]
        assert np.max(np.abs(w - dec.etas)) < 1e-10

    def test_stack_matches_each_alone(self):
        # one dimension, brackets that close after 42, 45 and 51 iterations
        # (the last under the relative tolerance): every matrix leaves the
        # stack with the bits it gets alone
        ops = [build_operator(SolutionFamily(kind, 3), a)
               for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
               for a in (0.0, 20.0, 1e6)]
        d, e = (np.stack(parts) for parts in zip(*(symmetrize(T)[:2] for T in ops)))
        stacked = sturm_bisection_oracle(d, e)
        for i in range(len(ops)):
            assert np.array_equal(stacked[i],
                                  sturm_bisection_oracle(d[i:i + 1], e[i:i + 1])[0]), i

    def test_relative_tolerance_at_huge_coupling(self):
        # eigenvalues near 1e150: an absolute 1e-11 bracket is below one ulp
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 3), 1e150)
        d, e, _ = symmetrize(T)
        w = sturm_bisection_oracle(d[None], e[None])[0]
        dense = np.sort(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
        assert np.max(np.abs(w - dense)) < 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("guesses", GUESSES)
    def test_guided_matches_lockstep_on_grid(self, grid_stacks, guesses):
        # every operator of the shipped grid, stacked by dimension as
        # verify --all stacks them; wrong guesses cost time, never bits
        rng = np.random.default_rng(11)
        for d, e, etas, reference in grid_stacks:
            got = sturm_bisection_oracle(d, e, tol=STURM_TOL,
                                         guesses=GUESSES[guesses](etas, rng))
            assert np.array_equal(got, reference), d.shape

    @given(st.data())
    def test_result_does_not_depend_on_guesses(self, data):
        batch = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(2, 7))
        values = st.floats(-1e3, 1e3, width=64)
        d = data.draw(hnp.arrays(np.float64, (batch, dim), elements=values))
        e = data.draw(hnp.arrays(np.float64, (batch, dim - 1),
                                 elements=st.floats(-30.0, 30.0, width=64)))
        guesses = data.draw(hnp.arrays(np.float64, (batch, dim),
                                       elements=st.floats(width=64)))
        reference = lockstep_reference(d, e)
        assert np.array_equal(sturm_bisection_oracle(d, e), reference)
        assert np.array_equal(sturm_bisection_oracle(d, e, guesses=guesses), reference)
        exact = np.linalg.eigvalsh(np.diag(d[0]) + np.diag(e[0], 1) + np.diag(e[0], -1))
        assert np.array_equal(sturm_bisection_oracle(d[:1], e[:1], guesses=exact[None]),
                              reference[:1])

    def test_one_step_before_judging(self):
        # a tol wider than the starting bracket: plain bisection still
        # halves once, so the two eigenvalues come out apart
        d, e = np.array([[0.0, 0.1]]), np.array([[0.0]])
        reference = lockstep_reference(d, e, tol=10.0)
        assert reference[0, 0] < reference[0, 1]
        for guesses in (None, np.array([[0.0, 0.1]])):
            assert np.array_equal(
                sturm_bisection_oracle(d, e, tol=10.0, guesses=guesses), reference)

    def test_guided_past_64_levels(self):
        # entries near 1e-20 under an absolute tol of 1e-40: 106 levels,
        # more than the guided pass first allocates for
        rng = np.random.default_rng(5)
        d, e = rng.normal(size=(3, 6)) * 1e-20, rng.normal(size=(3, 5)) * 1e-20
        reference = lockstep_reference(d, e, tol=1e-40)
        exact = np.stack([np.linalg.eigvalsh(np.diag(d[i]) + np.diag(e[i], 1)
                                             + np.diag(e[i], -1)) for i in range(3)])
        for guesses in (exact, None, np.zeros_like(d)):
            assert np.array_equal(
                sturm_bisection_oracle(d, e, tol=1e-40, guesses=guesses), reference)

    @pytest.mark.parametrize("max_iterations", [0, 3, 44])
    @pytest.mark.parametrize("guesses", ["etas", "zeros", "none"])
    def test_budget_error_matches_lockstep(self, max_iterations, guesses):
        # brackets that close after 42, 45 and 51 iterations: at a budget of
        # 44 some matrices finish and the first that does not is named
        ops = [build_operator(SolutionFamily(kind, 3), a)
               for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
               for a in (0.0, 20.0, 1e6)]
        d, e = (np.stack(parts) for parts in zip(*(symmetrize(T)[:2] for T in ops)))
        etas = np.stack([solve_spectrum(T).etas for T in ops])
        expected = _bisection_outcome(lockstep_reference, d, e,
                                      max_iterations=max_iterations)
        got = _bisection_outcome(
            sturm_bisection_oracle, d, e, max_iterations=max_iterations,
            guesses=GUESSES[guesses](etas, None))
        assert isinstance(expected, tuple) and got == expected
        if max_iterations == 44:
            assert expected[1] > 0

    def test_guesses_shape_checked(self):
        with pytest.raises(InputError, match="guesses"):
            sturm_bisection_oracle(np.zeros((1, 3)), np.ones((1, 2)),
                                   guesses=np.zeros((1, 2)))

    def test_iteration_budget(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 5), 10.0)
        d, e, _ = symmetrize(T)
        with pytest.raises(OracleError):
            sturm_bisection_oracle(d[None], e[None], tol=1e-12, max_iterations=3)

    def test_bad_tol(self):
        with pytest.raises(InputError):
            sturm_bisection_oracle(np.array([[1.0]]), np.zeros((1, 0)), tol=0.0)


class TestGapDiagnostics:
    def test_kg_gaps_clear_threshold(self):
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 20), 14.0))
        assert dec.min_relative_gap > 1e-8

    def test_dirac_pairing_collapses_in_double(self):
        # high-lying pairs of the spin-1/2 spectrum split by less than
        # double precision can represent (~1e-16 absolute at n=20, a=14,
        # established once with 60-digit bisection)
        dec = solve_spectrum(build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 20), 14.0))
        assert dec.min_relative_gap < 1e-12
