"""The eigensolver, symmetrization and the Sturm certificate."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from incevolkov.errors import InputError, StructuralError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import OperatorStack, build_operator, build_stack
from incevolkov.spectra import MAX_SOLVE_DIM, solve_spectra, solve_spectrum
from incevolkov.verification import (DEFAULT_GRID_A_VALUES, certified_radii,
                                     gershgorin_bounds, minor_ratios, sturm_counts)
from reference import dense, hand_built, joined


def lockstep_reference(diag, offdiag, tol=1e-11, max_iterations=250):
    """Plain Sturm bisection, every matrix from level 0 in one lockstep loop.

    The reference eigenvalues that the certificate's radii are judged
    against: each lies within its matrix's tolerance, max(tol, 8 eps B),
    of the eigenvalue its counts bracket.
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
    # a ratio counts as negative below pivmin, as LAPACK dstebz counts the
    # pivot it clamps to -pivmin
    pivmin = (np.maximum(np.abs(e2).max(axis=1, initial=0.0), 1.0)
              * np.finfo(float).tiny * 1e4)[:, None]
    ks = np.arange(1, nd + 1)
    out = np.empty_like(d)
    live = np.arange(batch)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        count = np.zeros(mid.shape, dtype=np.int64)
        for q in minor_ratios(d, e2, mid):
            count += q < pivmin
        move_down = count >= ks
        hi = np.where(move_down, mid, hi)
        lo = np.where(move_down, lo, mid)
        done = np.max(hi - lo, axis=1) < tols
        if done.any():
            out[live[done]] = 0.5 * (lo[done] + hi[done])
            keep = ~done
            if not keep.any():
                return out
            live, d, e2, pivmin, tols, lo, hi = (
                arr[keep] for arr in (live, d, e2, pivmin, tols, lo, hi))
    raise RuntimeError(f"lockstep bisection did not reach tol {tols[0]:.3g} "
                       f"in {max_iterations} iterations")


@pytest.fixture(scope="module")
def grid_stacks():
    """(diag, offdiag, etas, lockstep result) per dimension of the 900-point grid."""
    groups = {}
    for kind in ALL_KINDS:
        for n in range(1, 26):
            for a in DEFAULT_GRID_A_VALUES:
                T = build_operator(SolutionFamily(kind, n), float(a))
                (d,), (e,), _, _ = T.symmetrized
                groups.setdefault(T.dim, []).append((d, e, solve_spectrum(T).etas))
    stacks = []
    for rows in groups.values():
        d, e, etas = (np.stack(part) for part in zip(*rows))
        stacks.append((d, e, etas, lockstep_reference(d, e, tol=1e-11)))
    return stacks


EPS = np.finfo(float).eps


def _bound(d, e):
    """Per matrix, B = max|Gershgorin bound|."""
    lo, hi = gershgorin_bounds(d, e)
    return np.maximum(np.abs(lo), np.abs(hi))


def _assert_within_twice_the_gap(d, e, etas, reference, tol=1e-11):
    """Per matrix, the certified radius r and gap = max |reference - eta| satisfy
    gap <= r + t and r < 2 gap + t, with t the reference's tolerance
    max(tol, 8 eps B); non-finite etas give inf."""
    radii = certified_radii(d, e * e, etas)
    finite = np.isfinite(etas).all(axis=1)
    assert np.all(np.isinf(radii[~finite]))
    gap = np.max(np.abs(reference - etas), axis=1)[finite]
    tols = np.maximum(tol, 8 * EPS * _bound(d, e))[finite]
    assert np.all(gap <= radii[finite] + tols), (gap, radii)
    assert np.all(radii[finite] < 2 * gap + tols), (gap, radii)


def loop_symmetrize(T):
    """Bond-by-bond symmetrization of a stack of one: the reference for
    `OperatorStack.symmetrized`."""
    family, a = T.families[0], T.couplings[0]
    sup, sub = T.super_[0], T.sub[0]
    scale = np.ones(T.dim)
    off = np.zeros(max(T.dim - 1, 0))
    name = f"{family.kind.value} n={family.n}"
    for i in range(T.dim - 1):
        p = float(sup[i]) * float(sub[i])
        if p == np.inf:
            raise InputError(f"{name}: bond {i}: super*sub overflows at a = {a!r}; "
                             "the coupling is too large for double precision")
        if p > 0.0:
            off[i] = np.sqrt(p)
            scale[i + 1] = scale[i] * np.sqrt(sup[i] / sub[i])
        elif sup[i] == 0.0 and sub[i] == 0.0:
            scale[i + 1] = scale[i]
        elif p == 0.0 and np.sign(sup[i]) == np.sign(sub[i]):
            raise InputError(f"{name}: bond {i}: super*sub underflows at a = {a!r}; "
                             "the coupling is too small for double precision")
        else:
            raise StructuralError(f"{name}: bond {i}: super*sub = {p!r} <= 0 at a = {a}; "
                                  "operator is not symmetrizable (wrong recurrence?)")
    return T.diag[0].copy(), off, scale


def _rows(T):
    """(diag, off, scale) of a stack of one, from `OperatorStack.symmetrized`."""
    return tuple(part[0] for part in T.symmetrized[:3])


def reference_solve(T):
    """One operator's solve as a lone dense matrix: the reference for `solve_spectra`.

    (etas, vectors), vectors Fortran-ordered.
    """
    (diag,), (off,), (scale,), _ = T.symmetrized
    etas, y = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    vectors = np.asfortranarray(y) / scale[:, None]
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(vectors, axis=0)
    huge = ~np.isfinite(norms)
    if huge.any():
        vectors[:, huge] /= np.max(np.abs(vectors[:, huge]), axis=0)
        norms[huge] = np.linalg.norm(vectors[:, huge], axis=0)
    vectors = vectors / norms
    largest = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[largest, np.arange(T.dim)] < 0, -1.0, 1.0)
    return etas, vectors


def _assert_same_bits(dec, T):
    etas, vectors = reference_solve(T)
    for got, want in ((dec.etas, etas), (dec.vectors, vectors)):
        assert got.shape == want.shape and got.tobytes(order="A") == want.tobytes(order="A")
    assert dec.vectors.flags.f_contiguous


def _symmetrize_outcome(fn, T):
    try:
        return fn(T)
    except (InputError, StructuralError) as exc:
        return type(exc), str(exc)


def _dense_similarity(T, scale):
    return np.diag(scale) @ dense(T)[0] @ np.diag(1.0 / scale)


class TestSymmetrize:
    def test_diagonal_operator_unchanged(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 2), 0.0)
        (d,), (e,), (scale,), _ = T.symmetrized
        assert np.array_equal(d, T.diag[0])
        assert np.all(e == 0.0)
        assert np.all(scale == 1.0)

    def test_dirac_n1_already_symmetric(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 4.2)
        (d,), (e,), (scale,), _ = T.symmetrized
        assert np.all(scale == 1.0)
        assert e[0] == pytest.approx(T.super_[0, 0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_similarity_identity(self, kind):
        T = build_operator(SolutionFamily(kind, 6), 9.0)
        (d,), (e,), (scale,), _ = T.symmetrized
        S = np.diag(d)
        if T.dim > 1:
            S += np.diag(e, 1) + np.diag(e, -1)
        assert np.max(np.abs(S - _dense_similarity(T, scale))) < 1e-13

    def test_random_valid_operator(self):
        rng = np.random.default_rng(7)
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 4)
        for _ in range(20):
            dim = 8
            T = hand_built(
                family=fam, a=1.0,
                diag=rng.normal(size=dim),
                super_=rng.uniform(0.1, 2.0, size=dim - 1),
                sub=rng.uniform(0.1, 2.0, size=dim - 1))
            (d,), (e,), (scale,), _ = T.symmetrized
            S = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            assert np.max(np.abs(S - _dense_similarity(T, scale))) < 1e-13

    def test_sign_flip_rejected(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        T = hand_built(family=fam, a=1.0, diag=np.zeros(2),
                       super_=np.array([1.0]), sub=np.array([-1.0]))
        with pytest.raises(StructuralError):
            T.symmetrized

    def test_underflowing_bond_is_input_error(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        for sign in (1.0, -1.0):
            T = hand_built(family=fam, a=1e-200, diag=np.zeros(2),
                           super_=np.array([sign * 1e-200]),
                           sub=np.array([sign * 1e-200]))
            with pytest.raises(InputError, match=r"^dirac-plus n=1: bond 0: super\*sub "
                                                 r"underflows at a = 1e-200"):
                T.symmetrized
        T = hand_built(family=fam, a=1e-200, diag=np.zeros(2),
                       super_=np.array([1e-200]), sub=np.array([-1e-200]))
        with pytest.raises(StructuralError):
            T.symmetrized


    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_loop_reference(self, kind):
        for n in (1, 2, 7, 25, 200):
            for a in (*DEFAULT_GRID_A_VALUES, 1e-160, 1e150, 1e160):
                T = build_operator(SolutionFamily(kind, n), a)
                got, expected = (_symmetrize_outcome(fn, T)
                                 for fn in (_rows, loop_symmetrize))
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
        T = hand_built(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a=1.0,
                       diag=np.zeros(len(bonds) + 1), super_=sup, sub=sub)
        with pytest.raises(error, match=rf"^dirac-plus n=1: bond {bond}: ") as info:
            T.symmetrized
        assert _symmetrize_outcome(loop_symmetrize, T) == (error, str(info.value))

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    def test_stack_refuses_its_first_bad_operator(self, order):
        # among good operators of dim 4, the first bad one is refused as it
        # is alone: an overflow, an underflow, and a sign flip at bond 2
        bad = [build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 2), 1e308),
               build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 3), 5e-324),
               hand_built(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 2), a=1.0,
                          diag=np.zeros(4), super_=np.array([1.0, 2.0, 1.0]),
                          sub=np.array([1.0, 2.0, -1.0]))]
        good = [build_operator(SolutionFamily(kind, n), a)
                for kind, n in ((FamilyKind.DIRAC_MINUS, 2), (FamilyKind.KG_COS_EVEN, 3))
                for a in (0.0, 14.0)]
        stack = [good[0], good[1], bad[order[0]], good[2], bad[order[1]], bad[order[2]],
                 good[3]]
        expected = _symmetrize_outcome(_rows, bad[order[0]])
        assert isinstance(expected[0], type)
        with pytest.raises(expected[0]) as info:
            joined(stack).symmetrized
        assert (type(info.value), str(info.value)) == expected

    def test_stack_matches_each_operator_of_the_grid(self):
        # every operator of the 900-point grid, stacked by dimension: the
        # bits of its lone symmetrization, signed zeros included
        groups = {}
        for kind in ALL_KINDS:
            for n in range(1, 26):
                for a in DEFAULT_GRID_A_VALUES:
                    fam = SolutionFamily(kind, n)
                    groups.setdefault(fam.dim, []).append((fam, a))
        assert sum(map(len, groups.values())) == 900
        for points in groups.values():
            diag, off, scale, bonds = build_stack(*zip(*points)).symmetrized
            for (fam, a), *rows in zip(points, diag, off, scale, bonds, strict=True):
                T = build_operator(fam, a)
                for got, want in zip(rows, (*loop_symmetrize(T), (T.super_ * T.sub)[0])):
                    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_bond_keeps_scale(self):
        T = hand_built(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a=1.0,
                       diag=np.zeros(4), super_=np.array([4.0, 0.0, 9.0]),
                       sub=np.array([1.0, -0.0, 1.0]))
        (d,), (e,), (scale,), _ = T.symmetrized
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
        _, _, (scale,), _ = T.symmetrized
        assert 1.0 / scale.min() > 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = solve_spectrum(T)
        assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0, atol=1e-12)

    def test_weighted_orthogonality(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 12), 14.0)
        dec = solve_spectrum(T)
        Y = dec.vectors * T.symmetrized[2][0][:, None]
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
        # the first dimension above the cap: refused before the bond check or
        # the dense matrix allocate anything of size dim.  build_operator
        # refuses it too, so the operator is built by hand.
        def refuse(*args, **kwargs):
            raise AssertionError("solve_spectrum went past its dimension cap")

        monkeypatch.setattr(OperatorStack, "symmetrized", property(refuse))
        dim = MAX_SOLVE_DIM + 1
        T = hand_built(
            family=SolutionFamily(FamilyKind.KG_COS_EVEN, MAX_SOLVE_DIM), a=1.0,
            diag=np.zeros(dim), super_=np.ones(dim - 1), sub=np.ones(dim - 1))
        with pytest.raises(InputError, match="range limit"):
            solve_spectrum(T)

    def test_build_operator_refuses_past_the_cap(self, monkeypatch):
        # refused before the basis window (dim integers) is allocated
        def allocate(self):
            raise AssertionError("build_operator went past the dimension cap")

        monkeypatch.setattr(SolutionFamily, "r_indices", property(allocate))
        family = SolutionFamily(FamilyKind.KG_COS_EVEN, MAX_SOLVE_DIM)
        with pytest.raises(InputError, match="range limit"):
            build_operator(family, 1.0)


class TestSolveSpectra:
    """The stacked solve gives every operator the bits of its lone solve."""

    def test_grid_groups_bit_identical(self):
        groups = {}
        for kind in ALL_KINDS:
            for n in range(1, 26):
                for a in DEFAULT_GRID_A_VALUES:
                    fam = SolutionFamily(kind, n)
                    groups.setdefault(fam.dim, []).append((fam, float(a)))
        assert len(groups) == 38
        for points in groups.values():
            for dec, (fam, a) in zip(solve_spectra(build_stack(*zip(*points))), points,
                                     strict=True):
                assert (dec.family, dec.a) == (fam, a)
                _assert_same_bits(dec, build_operator(fam, a))

    @pytest.mark.parametrize("n, a", [(200, 14.0), (520, 1.0)])
    def test_large_operator_bit_identical(self, n, a):
        # n = 520 takes the prescale of columns whose squares overflow
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, n), a)
        if n == 520:
            assert 1.0 / T.symmetrized[2].min() > 1e154
        _assert_same_bits(solve_spectrum(T), T)

    def test_negative_zero_diagonal_enters_as_zero(self):
        # eigh returns an eta of -0.0 for a -0.0 entry across a zero bond,
        # and the JSON writers would print it as -0
        T = hand_built(family=SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a=1.0,
                       diag=np.array([-0.0, 1.0]), super_=np.zeros(1),
                       sub=np.zeros(1))
        dec = solve_spectrum(T)
        assert dec.etas.tolist() == [0.0, 1.0] and not np.signbit(dec.etas).any()
        _assert_same_bits(dec, T)

    def test_bad_bond_names_its_operator(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 2)
        good = build_operator(fam, 1.0)
        sub = good.sub[0].copy()
        sub[2] = -sub[2]
        bad = hand_built(family=fam, a=2.5, diag=good.diag[0],
                         super_=good.super_[0], sub=sub)
        with pytest.raises(StructuralError, match=r"^dirac-plus n=2: bond 2: .* at a = 2\.5; "):
            solve_spectra(joined([good, bad]))

    def test_operators_must_share_dimension(self):
        with pytest.raises(InputError, match="one dimension"):
            solve_spectra(build_stack([SolutionFamily(FamilyKind.DIRAC_PLUS, n)
                                       for n in (1, 2)], [1.0, 1.0]))


class TestMinorRatios:
    @pytest.mark.parametrize("a", [0.5, 3.0, 14.0])
    def test_negative_count_brackets_closed_form(self, a):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a)
        root = np.sqrt(4.0 + a * a)
        shifts = np.array([2.0 - root - 1.0, 2.0, 2.0 + root + 1.0])
        count = sum(q < 0 for q in minor_ratios(T.diag, T.super_ * T.sub, shifts[None]))
        assert count.tolist() == [[0, 1, 2]]

    def test_zero_pivot_at_free_limit(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 3), 0.0)
        x = T.diag[0, 2]
        ratios = [q[0, 0] for q in
                  minor_ratios(T.diag, T.super_ * T.sub, np.array([[x]]))]
        assert ratios[2] == 0.0
        assert np.all(np.isfinite(ratios))
        assert ratios[3:] == list(T.diag[0, 3:] - x)


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
    """`certified_radii`, the one Sturm algorithm, against closed forms, the
    primary solver and the lockstep bisection reference."""

    def test_diagonal_case(self):
        d, b = np.array([[0.0, 4.0]]), np.array([[0.0]])
        assert certified_radii(d, b, np.array([[0.0, 4.0]]))[0] == 4.0 * EPS
        # a wrong eta off by 1e-3: the radius lies within a factor 2 above it
        r = certified_radii(d, b, np.array([[0.0, 4.001]]))[0]
        assert 4.001 - 4.0 <= r < 2 * (4.001 - 4.0)

    def test_closed_form_2x2(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 3.0)
        (d,), (e,), _, _ = T.symmetrized
        exact = np.array([2 - np.sqrt(13), 2 + np.sqrt(13)])
        assert certified_radii(d[None], (e * e)[None], exact[None])[0] < 1e-14
        r = certified_radii(d[None], (e * e)[None], exact[None] + 1e-9)[0]
        assert 1e-9 - 1e-14 <= r < 2e-9 + 1e-14

    def test_against_primary_solver_stress(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 25), 20.0)
        dec = solve_spectrum(T)
        (d,), (e,), _, _ = T.symmetrized
        assert certified_radii(d[None], (e * e)[None], dec.etas[None])[0] < 1e-10

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 14.0, 20.0])
    def test_agreement_at_largest_window(self, kind, a):
        # the n = 25 corner is the worst conditioned of the shipped grid
        T = build_operator(SolutionFamily(kind, 25), a)
        dec = solve_spectrum(T)
        (d,), (e,), _, _ = T.symmetrized
        assert certified_radii(d[None], (e * e)[None], dec.etas[None])[0] < 1e-10

    def test_stack_matches_each_alone(self):
        # one dimension, etas that one pass certifies and etas whose ladders
        # stop at different rungs: every matrix gets the radius it gets alone
        ops = [build_operator(SolutionFamily(kind, 3), a)
               for kind in (FamilyKind.DIRAC_PLUS, FamilyKind.DIRAC_MINUS)
               for a in (0.0, 20.0, 1e6)]
        d, e = (np.concatenate(parts) for parts in zip(*(T.symmetrized[:2] for T in ops)))
        shifts = np.array([0.0, 1e-9, 1e-3, 0.0, 1.0, 1e3])[:, None]
        etas = np.stack([solve_spectrum(T).etas for T in ops]) + shifts
        stacked = certified_radii(d, e * e, etas)
        for i in range(len(ops)):
            assert stacked[i] == certified_radii(d[i:i + 1], (e * e)[i:i + 1],
                                                 etas[i:i + 1])[0], i
        bound = 8 * EPS * _bound(d, e)
        assert np.any(stacked <= bound) and np.any(stacked > bound)

    def test_relative_tolerance_at_huge_coupling(self):
        # eigenvalues near 1e150: the radii are relative to them
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 3), 1e150)
        (d,), (e,), _, _ = T.symmetrized
        dense = np.sort(np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
        r = certified_radii(d[None], (e * e)[None], dense[None])[0]
        assert r < 1e-14 * np.max(np.abs(dense))

    def test_matches_lockstep_on_grid(self, grid_stacks):
        # every operator of the shipped grid, stacked by dimension as
        # verify --all stacks them, with etas shifted inside and past the gate
        for d, e, etas, reference in grid_stacks:
            if d.shape[1] < 2:
                continue
            bound = _bound(d, e)[:, None]
            for shift in (4 * EPS * bound, 17 * EPS * bound, 1e-6, -1e-3 * bound):
                _assert_within_twice_the_gap(d, e, etas + shift, reference)

    @given(st.data())
    def test_matches_lockstep_on_random_stacks(self, data):
        # etas shifted by random multiples of eps B, from inside the
        # 16 eps B gate to four times B; some replaced by NaN or inf
        batch = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(2, 7))
        d = data.draw(hnp.arrays(np.float64, (batch, dim),
                                 elements=st.floats(-1e3, 1e3, width=64)))
        e = data.draw(hnp.arrays(np.float64, (batch, dim - 1),
                                 elements=st.floats(-30.0, 30.0, width=64)))
        reference = lockstep_reference(d, e)
        ulps = data.draw(hnp.arrays(np.float64, (batch, dim), elements=st.one_of(
            st.floats(-32.0, 32.0), st.floats(-2.0 ** 54, 2.0 ** 54))))
        etas = np.sort(reference + ulps * EPS * _bound(d, e)[:, None], axis=1)
        broken = data.draw(hnp.arrays(bool, (batch,)))
        etas[broken, 0] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        _assert_within_twice_the_gap(d, e, etas, reference)

    def test_deep_bisection_matches_lockstep(self):
        # entries near 1e-20 under an absolute tol of 1e-40: the reference
        # bisects 106 levels, and eps B is near 1e-36
        rng = np.random.default_rng(5)
        d, e = rng.normal(size=(3, 6)) * 1e-20, rng.normal(size=(3, 5)) * 1e-20
        reference = lockstep_reference(d, e, tol=1e-40)
        for shift in (0.0, 1e-30, -1e-22):
            _assert_within_twice_the_gap(d, e, reference + shift, reference, tol=1e-40)

    def test_zero_pivot_counts_its_eigenvalue(self):
        # at the shift 0 the leading pivot is exactly 0: counted as negative
        # (as dstebz counts it), the count below 0 keeps the eigenvalue
        # -1e20; counted as positive, it lost it
        d, e = np.array([[0.0, 4.0]]), np.array([[1e20]])
        assert sturm_counts(d, e * e, np.zeros((1, 1)))[0, 0] == 1
        exact = np.array([[2.0 - np.hypot(2.0, 1e20), 2.0 + np.hypot(2.0, 1e20)]])
        assert certified_radii(d, e * e, exact)[0] <= 8 * EPS * _bound(d, e)[0]


# integer diagonals and small bonds: shifts at 0 and at integers meet
# exact zero pivots (q_0 = 0 at x = d_0 and q_1 = 0 for d = [1, 1], b = 1)
_PIVOT_DIAG = st.integers(-3, 3).map(float)
_PIVOT_BOND = st.sampled_from([0.0, 0.5, 1.0, 2.0])


class TestSturmCertificate:
    @given(st.data())
    def test_count_nondecreasing_in_the_shift(self, data):
        batch = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(1, 6))
        d = data.draw(hnp.arrays(np.float64, (batch, dim), elements=_PIVOT_DIAG))
        e = data.draw(hnp.arrays(np.float64, (batch, dim - 1), elements=_PIVOT_BOND))
        shifts = data.draw(st.lists(st.one_of(_PIVOT_DIAG, st.floats(-10.0, 10.0)),
                                    min_size=1, max_size=12))
        x = np.repeat(np.sort(shifts)[None], batch, axis=0)
        counts = sturm_counts(d, e * e, x)
        assert np.all(np.diff(counts, axis=1) >= 0)
        assert np.all((counts >= 0) & (counts <= dim))

    def test_sound_on_grid(self, grid_stacks):
        # every grid operator of dim >= 2 is certified within the primary
        # solver's 8 eps B share of the agreement gate, and the lockstep
        # eigenvalue lies within the radius plus its bracket of each eta
        for d, e, etas, reference in grid_stacks:
            if d.shape[1] < 2:
                continue
            bound = _bound(d, e)
            radii = certified_radii(d, e * e, etas)
            assert np.all(radii <= 8 * EPS * bound), d.shape
            tols = np.maximum(1e-11, 8 * EPS * bound)
            assert np.all(np.max(np.abs(reference - etas), axis=1) <= radii + tols)

    @given(st.data())
    def test_sound_on_random_stacks(self, data):
        # each eta is an eigenvalue or d_j + c eps B for a ladder step c, so
        # the shifts eta -+ r meet exact zero pivots
        batch = data.draw(st.integers(1, 3))
        dim = data.draw(st.integers(2, 6))
        d = data.draw(hnp.arrays(np.float64, (batch, dim), elements=_PIVOT_DIAG))
        e = data.draw(hnp.arrays(np.float64, (batch, dim - 1), elements=_PIVOT_BOND))
        bound = _bound(d, e)
        exact = np.stack([np.linalg.eigvalsh(np.diag(d[i]) + np.diag(e[i], 1)
                                             + np.diag(e[i], -1)) for i in range(batch)])
        at_exact = data.draw(hnp.arrays(bool, (batch, dim)))
        picks = data.draw(hnp.arrays(np.intp, (batch, dim),
                                     elements=st.integers(0, dim - 1)))
        ladder = st.sampled_from([-8.0, -1.0, 0.0, 1.0, 2.0, 4.0])
        steps = data.draw(hnp.arrays(np.float64, (batch, dim), elements=ladder))
        etas = np.sort(np.where(at_exact, exact, np.take_along_axis(d, picks, axis=1)
                                + steps * EPS * bound[:, None]), axis=1)
        radii = certified_radii(d, e * e, etas)
        certified = np.isfinite(radii)
        gap = np.max(np.abs(lockstep_reference(d, e) - etas), axis=1)
        tols = np.maximum(1e-11, 8 * EPS * bound)
        assert np.all(gap[certified] <= (radii + tols)[certified])

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_shift_past_the_gate_never_certified(self, grid_stacks, sign):
        # the etas lie within 8 eps B of the eigenvalues, so after a shift of
        # 17 eps B, past the 16 eps B gate, none is within the widest radius
        # of the first pass: the ladder reports at least its first rung
        for d, e, etas, _ in grid_stacks:
            if d.shape[1] < 2:
                continue
            bound = _bound(d, e)
            shifted = etas + sign * 17 * EPS * bound[:, None]
            assert np.all(certified_radii(d, e * e, shifted) >= 16 * EPS * bound), d.shape


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
