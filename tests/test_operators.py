"""Construction and closure of the finite tridiagonal operators."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from incevolkov.errors import InputError
from incevolkov.families import ALL_KINDS, FamilyKind, SolutionFamily
from incevolkov.operators import OperatorStack, _entries, build_operator, build_stack
from incevolkov.verification import DEFAULT_GRID_A_VALUES
from reference import dense

ALL_FAMILY_CASES = [(kind, n) for kind in ALL_KINDS for n in (1, 2, 3, 7, 25)]


def boundary_couplings(family, a):
    """Couplings from the first rows outside the window back into it.

    These must vanish identically; a nonzero value means the window/q
    combination does not truncate the recurrence.
    """
    r0, r1 = family.window
    out = {"above": _entries(family, a, np.array([r1 + 1]))[2][0]}
    if family.spin_sign != 0:
        out["below"] = _entries(family, a, np.array([r0 - 1]))[1][0]
    # spin-0 windows terminate below through the basis itself (folding at
    # r = 0, or sin(0) = 0), not through a vanishing coupling
    return out


def build_extended_operator(family, a, extra=3):
    """Rebuild the operator on a window extended by `extra` indices.

    Returns (T_ext, window_slice) where window_slice selects the original
    rows inside the extended matrix.  Used by the closure test: the rows
    added above (and below, for the dirac kinds) must not couple back into
    the original window.
    """
    if extra < 1:
        raise InputError("extra must be >= 1")
    r0, r1 = family.window
    lo = r0 - extra if family.spin_sign != 0 else r0
    rs_ext = np.arange(lo, r1 + extra + 1)
    diag, sup, sub = _entries(family, a, rs_ext)
    T = np.diag(diag)
    i = np.arange(len(rs_ext) - 1)
    T[i, i + 1] = sup[:-1]
    T[i + 1, i] = sub[1:]
    return T, slice(r0 - lo, r0 - lo + family.dim)


def _reference_entries(family, a):
    """Per-row entry functions (diag, super, sub) of T, written out per kind.

    The reference the one vectorized formula of the operators module must
    equal bit for bit.
    """
    q, kind = family.q, family.kind
    if family.spin_sign != 0:
        s = family.spin_sign
        return (lambda m: 4.0 * m * m,
                lambda m: 0.5 * a * (q + 2 * m + 2 - s),
                lambda m: 0.5 * a * (q + 2 - 2 * m + s))
    odd = kind in (FamilyKind.KG_COS_ODD, FamilyKind.KG_SIN_ODD)
    nu = (lambda r: 2 * r + 1) if odd else (lambda r: 2 * r)

    def diag(r):
        d = float(nu(r)) ** 2
        if r == 0 and kind is FamilyKind.KG_COS_ODD:
            d += 0.5 * a * (q + 1)
        elif r == 0 and kind is FamilyKind.KG_SIN_ODD:
            d -= 0.5 * a * (q + 1)
        return d

    def sub(r):
        if r == 1 and kind is FamilyKind.KG_COS_EVEN:
            return a * q
        return 0.5 * a * (q + 2 - nu(r))

    return diag, lambda r: 0.5 * a * (q + nu(r) + 2), sub


def _reference_rows(family, a):
    """{"diag", "super_", "sub"}: the arrays of the operator of `family` at a,
    row by row from `_reference_entries`."""
    diag_f, sup_f, sub_f = _reference_entries(family, a)
    rs = family.r_indices
    return {"diag": np.array([diag_f(r) for r in rs], dtype=float),
            "super_": np.array([sup_f(r) for r in rs[:-1]], dtype=float),
            "sub": np.array([sub_f(r) for r in rs[1:]], dtype=float)}


def _bitwise_equal(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return (x.shape == y.shape and np.array_equal(x, y)
            and np.array_equal(np.signbit(x), np.signbit(y)))


class TestFamilyStructure:
    def test_dimensions(self):
        assert SolutionFamily(FamilyKind.DIRAC_PLUS, 20).dim == 40
        assert SolutionFamily(FamilyKind.DIRAC_MINUS, 20).dim == 40
        assert SolutionFamily(FamilyKind.KG_COS_EVEN, 20).dim == 21
        assert SolutionFamily(FamilyKind.KG_COS_ODD, 20).dim == 20
        assert SolutionFamily(FamilyKind.KG_SIN_ODD, 20).dim == 20
        assert SolutionFamily(FamilyKind.KG_SIN_EVEN, 20).dim == 20

    def test_q_values(self):
        assert SolutionFamily(FamilyKind.DIRAC_PLUS, 20).q == 39
        assert SolutionFamily(FamilyKind.KG_COS_EVEN, 20).q == 40
        assert SolutionFamily(FamilyKind.KG_COS_ODD, 20).q == 39
        assert SolutionFamily(FamilyKind.KG_SIN_EVEN, 20).q == 40

    def test_windows(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 3)
        assert list(fam.r_indices) == [-2, -1, 0, 1, 2, 3]
        fam = SolutionFamily(FamilyKind.DIRAC_MINUS, 3)
        assert list(fam.r_indices) == [-3, -2, -1, 0, 1, 2]
        fam = SolutionFamily(FamilyKind.KG_SIN_EVEN, 3)
        assert list(fam.r_indices) == [1, 2, 3]

    def test_invalid_n(self):
        with pytest.raises(InputError):
            SolutionFamily(FamilyKind.DIRAC_PLUS, 0)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.value)
    def test_string_kind_builds_the_enum_operator(self, kind):
        # the spin-0 folds are picked by identity with the members: a string
        # kind must reach them, bit for bit
        fam = SolutionFamily(kind.value, 3)
        assert fam.kind is kind and fam == SolutionFamily(kind, 3)
        got, want = build_operator(fam, 5.0), build_operator(SolutionFamily(kind, 3), 5.0)
        for name in ("diag", "super_", "sub"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_string_kind_keeps_the_fold(self):
        etas = np.linalg.eigvals(dense(build_operator(SolutionFamily("kg-cos-even", 3), 5.0))[0])
        assert min(etas.real) == pytest.approx(-25.71, abs=0.01)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown family kind 'nope'; valid: dirac-plus, "):
            SolutionFamily("nope", 3)


class TestDiracOperator:
    def test_decoupled_at_zero_coupling(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), 0.0)
        assert np.array_equal(T.diag[0], [0.0, 4.0])
        assert np.all(T.super_ == 0.0)
        assert np.all(T.sub == 0.0)

    def test_two_by_two_entries(self):
        # window r = 0, 1 with q = 1: both couplings equal a
        a = 2.7
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), a)
        assert T.diag[0, 0] == 0.0 and T.diag[0, 1] == 4.0
        assert T.super_[0, 0] == pytest.approx(a)
        assert T.sub[0, 0] == pytest.approx(a)

    def test_minus_family_mirror(self):
        # conjugation plus reflection maps the two branches onto each other,
        # so the entry pattern of one is the reversed pattern of the other
        a = 3.3
        Tp = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 4), a)
        Tm = build_operator(SolutionFamily(FamilyKind.DIRAC_MINUS, 4), a)
        assert np.allclose(Tm.diag[0], Tp.diag[0, ::-1])
        assert np.allclose(Tm.super_[0], Tp.sub[0, ::-1])
        assert np.allclose(Tm.sub[0], Tp.super_[0, ::-1])

    def test_errors(self):
        with pytest.raises(InputError):
            build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 0), 1.0)
        with pytest.raises(InputError):
            build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 1), -1.0)


class TestKgOperator:
    def test_cos_even_fold(self):
        # constant mode couples into the first harmonic with doubled weight
        a, n = 1.9, 4
        T = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, n), a)
        q = 2 * n
        assert T.sub[0, 0] == pytest.approx(a * q)
        assert T.super_[0, 0] == pytest.approx(0.5 * a * (q + 2))

    def test_cos_even_two_by_two(self):
        a = 3.0
        T = build_operator(SolutionFamily(FamilyKind.KG_COS_EVEN, 1), a)
        assert np.array_equal(T.diag[0], [0.0, 4.0])
        assert T.super_[0, 0] == pytest.approx(2 * a)
        assert T.sub[0, 0] == pytest.approx(2 * a)

    def test_odd_fold_on_diagonal(self):
        a, n = 2.2, 5
        q = 2 * n - 1
        Tc = build_operator(SolutionFamily(FamilyKind.KG_COS_ODD, n), a)
        Ts = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, n), a)
        assert Tc.diag[0, 0] == pytest.approx(1.0 + 0.5 * a * (q + 1))
        assert Ts.diag[0, 0] == pytest.approx(1.0 - 0.5 * a * (q + 1))
        assert np.array_equal(Tc.super_, Ts.super_)
        assert np.array_equal(Tc.sub, Ts.sub)

    def test_zero_coupling_frequencies(self):
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_EVEN, 3), 0.0)
        assert np.array_equal(T.diag[0], [4.0, 16.0, 36.0])
        T = build_operator(SolutionFamily(FamilyKind.KG_SIN_ODD, 3), 0.0)
        assert np.array_equal(T.diag[0], [1.0, 9.0, 25.0])


class TestGenericInvariants:
    @pytest.mark.parametrize("kind,n", ALL_FAMILY_CASES)
    def test_entries_real_finite(self, kind, n):
        T = build_operator(SolutionFamily(kind, n), 14.0)
        for arr in (T.diag, T.super_, T.sub):
            assert np.all(np.isfinite(arr))

    @pytest.mark.parametrize("kind,n", ALL_FAMILY_CASES)
    def test_symmetrizable_products(self, kind, n):
        T = build_operator(SolutionFamily(kind, n), 5.0)
        if T.dim > 1:
            assert np.all(T.super_ * T.sub > 0.0)

    @pytest.mark.parametrize("kind,n", ALL_FAMILY_CASES)
    def test_zero_coupling_diagonal(self, kind, n):
        fam = SolutionFamily(kind, n)
        T = build_operator(fam, 0.0)
        assert np.array_equal(T.diag[0], (2.0 * fam.xi_harmonics) ** 2)
        assert np.all(T.super_ == 0.0) and np.all(T.sub == 0.0)

    def test_immutability(self):
        T = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, 2), 1.0)
        with pytest.raises(ValueError):
            T.diag[0, 0] = 99.0


class TestEntryFormula:
    """The one vectorized entry formula against the per-row reference and
    the structural properties every family's operator must have."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_per_row_reference(self, kind):
        for n in (1, 2, 3, 7, 25, 60, 200):
            fam = SolutionFamily(kind, n)
            rs = fam.r_indices
            for a in (0.0, 0.5, 14.0, 50.0, 1e150):
                diag_f, sup_f, sub_f = _reference_entries(fam, a)
                T = build_operator(fam, a)
                assert _bitwise_equal(T.diag[0], [diag_f(r) for r in rs]), (n, a)
                assert _bitwise_equal(T.super_[0], [sup_f(r) for r in rs[:-1]]), (n, a)
                assert _bitwise_equal(T.sub[0], [sub_f(r) for r in rs[1:]]), (n, a)
                expected = {"above": sub_f(rs[-1] + 1)}
                if fam.spin_sign != 0:
                    expected["below"] = sup_f(rs[0] - 1)
                got = boundary_couplings(fam, a)
                assert got.keys() == expected.keys()
                assert all(_bitwise_equal(got[k], expected[k]) for k in got)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_extended_operator_matches_reference(self, kind):
        fam = SolutionFamily(kind, 4)
        diag_f, sup_f, sub_f = _reference_entries(fam, 14.0)
        T_ext, win = build_extended_operator(fam, 14.0, extra=2)
        rs = np.arange(fam.r_indices[0] - (2 if fam.spin_sign != 0 else 0),
                       fam.r_indices[-1] + 3)
        expected = np.diag([diag_f(r) for r in rs])
        for i, r in enumerate(rs[:-1]):
            expected[i, i + 1] = sup_f(r)
            expected[i + 1, i] = sub_f(r + 1)
        assert _bitwise_equal(T_ext, expected)
        assert list(rs[win]) == list(fam.r_indices)

    @given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 60),
           a=st.floats(0.0, 200.0))
    def test_properties(self, kind, n, a):
        fam = SolutionFamily(kind, n)
        T = build_operator(fam, a)
        assert all(v == 0.0 for v in boundary_couplings(fam, a).values())
        # below about 1e-154 the bond product (a/2)^2 underflows to zero
        if a > 1e-150:
            assert np.all(T.super_ * T.sub > 0.0)
        T0 = build_operator(fam, 0.0)
        assert np.array_equal(T0.diag[0], fam.nu ** 2)
        assert np.all(T0.super_ == 0.0) and np.all(T0.sub == 0.0)
        plus = build_operator(SolutionFamily(FamilyKind.DIRAC_PLUS, n), a)
        minus = build_operator(SolutionFamily(FamilyKind.DIRAC_MINUS, n), a)
        assert np.array_equal(minus.diag[0], plus.diag[0, ::-1])
        assert np.array_equal(minus.super_[0], plus.sub[0, ::-1])
        assert np.array_equal(minus.sub[0], plus.super_[0, ::-1])


def _same_bits(got, want) -> bool:
    """Equal shape, dtype and bytes: signed zeros and NaN payloads count."""
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# the grid's couplings, a = 0 (signed zeros), 1e150, and the smallest subnormal
STACK_COUPLINGS = (*DEFAULT_GRID_A_VALUES, 50.0, 1e150, 5e-324)


class TestOperatorStack:
    """One `_entries` evaluation with a coupling column gives each row the
    bits of the module docstring's entry formula at its coupling alone."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_coupling_column_matches_each_coupling(self, kind):
        # n = 1 and 2 hold the r = 0 folds and the kg-cos-even r = 1 fold at
        # the window's first rows; every entry of a = 0 is a signed zero
        for n in (1, 2, 3, 7, 25):
            fam = SolutionFamily(kind, n)
            column = np.array(STACK_COUPLINGS)[:, None]
            stacked = _entries(fam, column, fam.r_indices)
            for i, a in enumerate(STACK_COUPLINGS):
                for got, want in zip(stacked, _entries(fam, a, fam.r_indices)):
                    assert _same_bits(got[i], want), (kind, n, a)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_stack_rows_are_the_lone_operators(self, kind):
        for n in (1, 2, 3, 7, 25):
            fam = SolutionFamily(kind, n)
            stack = build_stack([fam] * len(STACK_COUPLINGS), STACK_COUPLINGS)
            assert len(stack) == len(STACK_COUPLINGS) and stack.dim == fam.dim
            for b, a in enumerate(STACK_COUPLINGS):
                assert (stack.families[b], stack.couplings[b]) == (fam, a)
                for name, want in _reference_rows(fam, a).items():
                    assert _same_bits(getattr(stack, name)[b], want), (kind, n, a, name)

    def test_grid_groups_mix_families(self):
        # each dimension group of the grid, its families interleaved: the
        # rows keep their order and their lone bits
        groups = {}
        for a in DEFAULT_GRID_A_VALUES:
            for kind in ALL_KINDS:
                for n in range(1, 26):
                    fam = SolutionFamily(kind, n)
                    groups.setdefault(fam.dim, []).append((fam, a))
        assert sum(map(len, groups.values())) == 900
        for points in groups.values():
            families, couplings = zip(*points)
            stack = build_stack(families, couplings)
            assert len(stack) == len(points)
            for b, (fam, a) in enumerate(points):
                assert stack.families[b] == fam
                for name, want in _reference_rows(fam, a).items():
                    assert _same_bits(getattr(stack, name)[b], want), (fam, a)

    def test_refuses_as_build_operator_the_first_point_first(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 2)
        other = SolutionFamily(FamilyKind.KG_COS_EVEN, 3)
        with pytest.raises(InputError) as lone:
            build_operator(fam, -2.0)
        with pytest.raises(InputError) as stacked:
            build_stack([other, fam, other], [1.0, -2.0, -3.0])
        assert str(stacked.value) == str(lone.value)
        with pytest.raises(InputError, match="one dimension"):
            build_stack([fam, SolutionFamily(FamilyKind.DIRAC_PLUS, 3)], [1.0, 1.0])

    def test_symmetrized_once_per_stack(self):
        # the solve and the Sturm pass read one kept result
        fam = SolutionFamily(FamilyKind.KG_COS_ODD, 4)
        stack = build_stack([fam, fam], [1.0, 14.0])
        first = stack.symmetrized
        assert stack.symmetrized is first
        assert all(not part.flags.writeable for part in first)
        assert build_stack([fam, fam], [1.0, 14.0]).symmetrized is not first

    def test_refuses_shapes_that_disagree(self):
        # entry rows of one operator passed 1-D, as a lone operator once
        # took them; too few couplings; bond rows of the wrong length or
        # of different shapes; a 3-D diagonal; more rows than families
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 1)
        good = build_operator(fam, 1.0)
        cases = [
            dict(diag=np.zeros(2), super_=np.ones(1), sub=np.ones(1)),
            dict(couplings=()),
            dict(super_=np.ones((1, 2))),
            dict(sub=np.ones((1, 0))),
            dict(diag=np.zeros((1, 2, 1))),
            dict(diag=np.zeros((2, 2)), super_=np.ones((2, 1)), sub=np.ones((2, 1))),
        ]
        for changed in cases:
            fields = {"families": good.families, "couplings": good.couplings,
                      "diag": good.diag, "super_": good.super_, "sub": good.sub, **changed}
            with pytest.raises(InputError, match="^operator stack shapes disagree: 1 families, "):
                OperatorStack(**fields)
        assert len(OperatorStack(families=good.families, couplings=good.couplings,
                                 diag=np.zeros((1, 2)), super_=np.ones((1, 1)),
                                 sub=np.ones((1, 1)))) == 1


class TestFamilyBasis:
    # the basis of each kind at n = 3, written out by hand
    EXPECTED = {
        FamilyKind.DIRAC_PLUS: lambda xi: np.exp(-1j * np.multiply.outer(xi, [-2, -1, 0, 1, 2, 3])),
        FamilyKind.DIRAC_MINUS: lambda xi: np.exp(-1j * np.multiply.outer(xi, [-3, -2, -1, 0, 1, 2])),
        FamilyKind.KG_COS_EVEN: lambda xi: np.cos(np.multiply.outer(xi, [0, 1, 2, 3])),
        FamilyKind.KG_COS_ODD: lambda xi: np.cos(np.multiply.outer(xi, [0.5, 1.5, 2.5])),
        FamilyKind.KG_SIN_ODD: lambda xi: np.sin(np.multiply.outer(xi, [0.5, 1.5, 2.5])),
        FamilyKind.KG_SIN_EVEN: lambda xi: np.sin(np.multiply.outer(xi, [1, 2, 3])),
    }

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_values_are_the_family_basis(self, kind):
        xi = np.linspace(-2.0 * np.pi, 2.0 * np.pi, 41)
        B, = SolutionFamily(kind, 3).basis(xi / 2.0)
        np.testing.assert_allclose(B, self.EXPECTED[kind](xi), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_derivatives_match_central_differences(self, kind):
        fam = SolutionFamily(kind, 3)
        z = np.linspace(0.0, 2.0 * np.pi, 29)
        B, Bp, Bpp = fam.basis(z, derivatives=2)
        h = 1e-4
        Bm, Bc, Bq = (fam.basis(z + dz)[0] for dz in (-h, 0.0, h))
        assert np.array_equal(Bc, B)
        np.testing.assert_allclose(Bp, (Bq - Bm) / (2.0 * h), rtol=0, atol=1e-6)
        np.testing.assert_allclose(Bpp, (Bq - 2.0 * B + Bm) / h ** 2, rtol=0, atol=1e-5)
        assert len(fam.basis(z)) == 1
        assert np.array_equal(fam.basis(z, derivatives=1)[1], Bp)


class TestClosure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", range(1, 26))
    def test_boundary_couplings_vanish(self, kind, n):
        fam = SolutionFamily(kind, n)
        for value in boundary_couplings(fam, 1.7).values():
            assert value == 0.0

    @pytest.mark.parametrize("kind,n", ALL_FAMILY_CASES)
    def test_extended_rows_decouple(self, kind, n):
        fam = SolutionFamily(kind, n)
        T_ext, win = build_extended_operator(fam, 14.0, extra=3)
        # the first row above the window must not reach back inside
        assert T_ext[win.stop, win.stop - 1] == 0.0
        if fam.spin_sign != 0:
            assert T_ext[win.start - 1, win.start] == 0.0

    def test_extended_spectrum_contains_original(self):
        fam = SolutionFamily(FamilyKind.DIRAC_PLUS, 3)
        T = build_operator(fam, 5.0)
        T_ext, win = build_extended_operator(fam, 5.0, extra=3)
        w_orig = np.sort(np.linalg.eigvals(dense(T)[0]).real)
        w_ext = np.sort(np.linalg.eigvals(T_ext).real)
        # block triangular split: the original eigenvalues survive intact
        for w in w_orig:
            assert np.min(np.abs(w_ext - w)) < 1e-8
