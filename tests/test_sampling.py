import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zobcd.core import ConfigurationError, NumericalFailure, RngStreams
from zobcd.sampling import (
    PartialCirculantEnsemble,
    RademacherEnsemble,
    draw_signs,
    make_partial_circulant,
    make_rademacher,
    required_rows,
)
from zobcd.sparse_recovery import cosamp, top_k_magnitude


def rng(seed=0):
    return RngStreams(seed).substream("directions")


def dense_matrix(Z):
    """Row-by-row dense oracle built from the row() accessor."""
    return np.array([Z.row(i) for i in range(Z.m)])


class TestRademacher:
    def test_entries_are_plus_minus_one(self):
        Z = make_rademacher(10, 20, rng())
        assert np.all(np.isin(Z.cols.T, (-1.0, 1.0)))

    def test_apply_zero(self):
        Z = make_rademacher(4, 8, rng())
        assert np.array_equal(Z.apply(np.zeros(8)), np.zeros(4))

    def test_unit_vector_entry_magnitude(self):
        Z = make_rademacher(4, 8, rng())
        e1 = np.zeros(8)
        e1[0] = 1.0
        out = Z.apply(e1)
        assert np.all(np.isin(out, (-1.0, 1.0)))

    def test_column_mean_concentration(self):
        Z = make_rademacher(1000, 100, rng(1))
        assert np.all(np.abs(Z.cols.T.mean(axis=0)) <= 4 / np.sqrt(1000))

    def test_bad_sizes_rejected(self):
        # a size that is not an integer is a configuration error too, not
        # numpy's TypeError; both builders share the check
        for make in (make_rademacher, make_partial_circulant):
            for m, n in [(0, 8), (4, -1), (2.5, 8), (4, 8.0), (True, 8), (4, "8"), (4, None)]:
                with pytest.raises(ConfigurationError):
                    make(m, n, rng())
            Z = make(np.int64(4), np.int32(8), rng())  # numpy integers are integers
            assert (Z.m, Z.n) == (4, 8)


def rademacher_reference(m, n, gen):
    """The m x n matrix make_rademacher stores, from shifts of uint32 draws.

    Entry (i, c) is bit j = c * m + i of the draws: in word j // 32, byte
    j % 32 // 8 counted from the least significant, bit j % 8 counted from
    that byte's most significant; a set bit is +1.
    """
    words = gen.integers(0, 2**32, size=-(-m * n // 32), dtype=np.uint32).astype(np.int64)
    j = np.arange(m * n)
    shift = 8 * (j % 32 // 8) + 7 - j % 8
    bits = (words[j // 32] >> shift) & 1
    return (2.0 * bits - 1.0).reshape(n, m).T


class TestColumnMajorRademacher:
    # 181 x 1000 and 269 x 1000 cross one and two chunks of the draw, and
    # 1 x (2**17 + 1) leaves one sign for its second; every shape but 64 x 33
    # holds a number of signs that is not a whole number of 32-bit words
    SHAPES = [(1, 1), (1, 7), (3, 5), (7, 9), (13, 17), (64, 33), (181, 50), (181, 1000), (269, 1000),
              (1, 2**17 + 1)]

    @pytest.mark.parametrize("m, n", SHAPES)
    def test_build_equals_integers_reference(self, m, n):
        for seed in range(6 if m * n < 10**5 else 2):
            Z = make_rademacher(m, n, np.random.default_rng(seed))
            assert np.array_equal(Z.cols.T, rademacher_reference(m, n, np.random.default_rng(seed)))
            assert Z.cols.flags.c_contiguous and Z.cols.shape == (n, m)

    def test_build_equals_reference_on_directions_substreams(self):
        for seed in range(5):
            Z = make_rademacher(91, 203, rng(seed))
            assert np.array_equal(Z.cols.T, rademacher_reference(91, 203, rng(seed)))

    @pytest.mark.parametrize("gen", ["buffered-half", "mt19937"])
    def test_build_equals_reference_for_any_generator_state(self, gen):
        def make():
            if gen == "mt19937":  # its raw outputs are 32 bits wide
                return np.random.Generator(np.random.MT19937(5))
            g = np.random.default_rng(5)
            g.integers(0, 2**32, dtype=np.uint32)  # leaves a 32-bit half buffered
            return g

        for m, n in [(9, 11), (269, 1000)]:  # one chunk, and three
            g, g_ref = make(), make()
            assert np.array_equal(make_rademacher(m, n, g).cols.T, rademacher_reference(m, n, g_ref))
            assert g.random() == g_ref.random()  # and leaves the same state behind

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 70), st.integers(0, 2**32 - 1), st.booleans())
    def test_fills_split_at_a_word_boundary_give_one_fill(self, words, rest, seed, buffered):
        def make():
            g = np.random.default_rng(seed)
            if buffered:
                g.integers(0, 2**32, dtype=np.uint32)
            return g

        g, g_ref = make(), make()
        whole = draw_signs(np.empty(32 * words + rest), g_ref)
        split = np.empty_like(whole)
        draw_signs(split[: 32 * words], g)
        draw_signs(split[32 * words :], g)
        assert split.tobytes() == whole.tobytes()
        assert g.random() == g_ref.random()

    def test_fill_takes_the_dtype_of_its_output(self):
        for dtype in (np.float32, np.float64, np.int8):
            out = draw_signs(np.empty(100, dtype=dtype), rng(7))
            assert out.dtype == dtype
            assert np.array_equal(out, rademacher_reference(1, 100, rng(7))[0])

    def test_build_holds_no_full_size_temporary(self):
        # the 21.5 MB store and one chunk's 1.125 bytes a sign, never one byte a sign of the whole draw
        tracemalloc.start()
        try:
            Z = make_rademacher(269, 20000, rng(8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - Z.cols.nbytes < 2**19

    def test_constructor_takes_columns_by_keyword_only(self):
        Z = make_rademacher(6, 10, rng(2))
        with pytest.raises(TypeError):
            RademacherEnsemble(Z.cols.T)
        assert (RademacherEnsemble(cols=Z.cols).m, RademacherEnsemble(cols=Z.cols).n) == (6, 10)

    def test_integer_signs_give_the_float_ensemble(self):
        # signs of any dtype are stored once as float32, in which +-1 is
        # exact; every product and gather still returns float64
        Z = make_rademacher(30, 80, rng(11))
        assert Z.cols.dtype == np.float32
        Zi = RademacherEnsemble(cols=Z.cols.astype(np.int8))
        assert Zi.cols.dtype == np.float32
        assert RademacherEnsemble(cols=Z.cols).cols is Z.cols  # float32 is not copied
        assert RademacherEnsemble(cols=Z.cols.astype(np.float64)).cols.tobytes() == Z.cols.tobytes()
        idx = rng(12).choice(Z.n, size=13, replace=False)
        # the columns A, and the Gram G and column sums c of their signs
        for got, want in zip(Zi.columns(idx), Z.columns(idx)):
            assert got.dtype == np.float64 and got.tobytes(order="F") == want.tobytes(order="F")
        assert Zi.columns(idx)[0].flags.f_contiguous
        y = Z.apply(np.eye(Z.n)[5])
        est = cosamp(Zi, y, 1)
        ref = cosamp(Z, y, 1)
        assert est.indices.tobytes() == ref.indices.tobytes()
        assert est.values.tobytes() == ref.values.tobytes()

    @pytest.mark.parametrize("truncate", [False, True])
    def test_directions_equal_row_major_gather(self, truncate):
        Z = master = make_rademacher(40, 90, rng(3))
        if truncate:  # a smaller block's view of the master, as ZO-BCD-R builds it
            Z = RademacherEnsemble(cols=master.cols[:70, :31])
            assert (Z.m, Z.n) == (31, 70) and np.shares_memory(Z.cols, master.cols)
        rows = np.ascontiguousarray(Z.cols.T, dtype=np.float64)  # the float64 matrix
        cols = rng(4).choice(Z.n, size=17, replace=False)
        for idx in (cols, np.sort(cols), np.arange(Z.n)):
            # float64 and F-ordered, so that objectives' delta * directions
            # and CoSaMP's products stay float64 arithmetic on that order
            A = Z.columns(idx)[0]
            for out in (Z.directions(idx), A):
                assert out.dtype == np.float64 and out.flags.f_contiguous
            assert np.array_equal(Z.directions(idx), rows[:, idx])
            assert np.array_equal(A, rows[:, idx])
            # the same memory order too: BLAS products on it round the same way
            assert A.strides == (rows[:, idx] * 1.0).strides
            # converted in one gathered array, bit for bit the directions
            assert not np.shares_memory(A, Z.cols)
            assert A.tobytes(order="F") == Z.directions(idx).tobytes(order="F")
        assert Z.directions(np.empty(0, dtype=np.intp)).shape == (Z.m, 0)
        for i in range(Z.m):
            assert Z.row(i).dtype == np.float64 and np.array_equal(Z.row(i), rows[i])

    @pytest.mark.parametrize("truncate", [False, True])
    def test_products_match_row_major(self, truncate):
        Z = make_rademacher(60, 150, rng(5))
        if truncate:
            Z = RademacherEnsemble(cols=Z.cols[:110, :45])
        rows = np.ascontiguousarray(Z.cols.T, dtype=np.float64)
        gen = rng(6)
        for _ in range(20):
            v, y = gen.standard_normal(Z.n), gen.standard_normal(Z.m)
            np.testing.assert_allclose(Z.apply(v), rows @ v, rtol=1e-12, atol=1e-12 * np.abs(v).sum())
            np.testing.assert_allclose(Z.adjoint(y), rows.T @ y, rtol=1e-12, atol=1e-12 * np.abs(y).sum())


@st.composite
def dense_case(draw):
    """A dense ensemble (possibly a truncated view), a measurement y and a k.

    n covers every residue mod 4 and n = 1; k covers 1, n - 1, n and beyond;
    |y| spans 1e-300 to 1e300, past float32's range both ways; y is generic,
    integer-valued (exact ties in the proxy) or a scaled unit vector (every
    proxy magnitude equal).
    """
    n = max(4 * draw(st.integers(0, 60)) + draw(st.sampled_from([0, 1, 2, 3])), 1)
    m = draw(st.integers(1, 90))
    seed = draw(st.integers(0, 10_000))
    Z = make_rademacher(m, n, rng(seed))
    if draw(st.booleans()) and n > 1 and m > 1:  # cols[:n, :m] of a master, as ZO-BCD-R builds it
        Z = RademacherEnsemble(cols=Z.cols[: draw(st.integers(1, n - 1)), : draw(st.integers(1, m - 1))])
    gen = rng(seed + 1)
    kind = draw(st.sampled_from(["normal", "integers", "unit"]))
    if kind == "normal":
        y = gen.standard_normal(Z.m)
    elif kind == "integers":
        y = gen.integers(-2, 3, size=Z.m).astype(np.float64)
    else:
        y = np.zeros(Z.m)
        y[draw(st.integers(0, Z.m - 1))] = 1.0
    y *= 10.0 ** draw(st.integers(-300, 300))
    k = draw(st.sampled_from([1, Z.n - 1, Z.n, Z.n + 3, max(1, Z.n // 10)]))
    return Z, y, k


def count_adjoint_calls(Z):
    """Make Z record each call of its float64 adjoint in the returned list."""
    calls, adjoint = [], Z.adjoint
    Z.adjoint = lambda y: calls.append(1) or adjoint(y)
    return calls


class TestScreenedTopAdjoint:
    @settings(max_examples=300, deadline=None)
    @given(dense_case())
    def test_top_adjoint_ranks_the_float32_product(self, case):
        Z, y, k = case
        assume(np.any(y))  # integer-valued y may be all zeros
        product = Z.cols @ (y / np.max(np.abs(y))).astype(np.float32)
        assert product.dtype == np.float32
        assert Z.top_adjoint(y, k).tobytes() == top_k_magnitude(product, k).tobytes()

    def test_zero_measurements_pick_nothing(self):
        Z = make_rademacher(12, 30, rng(30))
        assert Z.top_adjoint(np.zeros(12), 5).size == 0

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_pick_is_the_same_out_of_float32_range(self, scale):
        Z = make_rademacher(50, 300, rng(31))
        y = rng(32).standard_normal(50)
        expected = Z.top_adjoint(y, 7)
        calls = count_adjoint_calls(Z)
        assert Z.top_adjoint(y * scale, 7).tobytes() == expected.tobytes()
        assert calls == []

    @settings(max_examples=300, deadline=None)
    @given(dense_case())
    def test_agrees_with_the_float64_pick_outside_near_ties(self, case):
        # Every entry of the float32 product is within gamma_{m+2} ||y||_1 of
        # the exact one; the float64 proxy is far closer.
        # A float64 gap at the cut wider than twice that keeps the pick.
        Z, y, k = case
        proxy = Z.adjoint(y)
        # the reference: the product on float64 signs
        assert proxy.tobytes() == (Z.cols.astype(np.float64) @ y).tobytes()
        ranked = np.append(np.sort(np.abs(proxy))[::-1], 0.0)
        cut = min(k, Z.n)
        u = 2.0**-24
        bound = (Z.m + 2) * u / (1 - (Z.m + 2) * u) * np.abs(y).sum()
        assume(ranked[cut - 1] - ranked[cut] > 2 * bound)
        assert Z.top_adjoint(y, k).tobytes() == top_k_magnitude(proxy, k).tobytes()

    @pytest.mark.parametrize("n", [500, 501, 502, 503])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_screen_decides_without_the_full_product(self, n, truncate):
        # at a realistic shape the float32 product picks what the float64
        # proxy picks, and the float64 adjoint is never formed
        Z = make_rademacher(120, 520, rng(n))
        Z = RademacherEnsemble(cols=Z.cols[:n, : 110 if truncate else 120])
        ys = [rng(n + 1).standard_normal(Z.m) * scale for scale in (1e-30, 1.0, 1e30)]
        expected = [top_k_magnitude(Z.adjoint(y), k) for y in ys for k in (1, 2, 40, n - 1)]
        calls = count_adjoint_calls(Z)
        got = [Z.top_adjoint(y, k) for y in ys for k in (1, 2, 40, n - 1)]
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]
        assert calls == []

    @pytest.mark.parametrize("circulant", [False, True], ids=["R", "RC"])
    def test_non_finite_proxy_raises(self, circulant):
        Z = make_partial_circulant(8, 16, rng(33)) if circulant else make_rademacher(8, 16, rng(33))
        y = np.ones(8)
        y[3] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic on it
            with pytest.raises(NumericalFailure):
                Z.top_adjoint(y, 3)

    def test_circulant_top_adjoint_is_the_top_of_its_adjoint(self):
        Z = make_partial_circulant(24, 96, rng(34))
        y = rng(35).standard_normal(24)
        for k in (1, 10, 95, 96, 200):
            assert Z.top_adjoint(y, k).tobytes() == top_k_magnitude(Z.adjoint(y), k).tobytes()


class TestPartialCirculant:
    def test_row_formula(self):
        # cyclic rows of the generator, row i shifts left by i
        Z = PartialCirculantEnsemble(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 2]))
        assert np.array_equal(Z.row(0), [1, 2, 3])
        assert np.array_equal(Z.row(1), [2, 3, 1])
        assert np.array_equal(Z.row(2), [3, 1, 2])

    def test_apply_matches_hand_product(self):
        Z = PartialCirculantEnsemble(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 2]))
        v = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(Z.apply(v), np.array([1, 2, 3]))

    def test_full_row_set_equals_circulant_product(self):
        n = 16
        Z = make_partial_circulant(n, n, rng(2))
        v = rng(3).standard_normal(n)
        np.testing.assert_allclose(Z.apply(v), dense_matrix(Z) @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n,m", [(256, 64), (128, 128), (100, 7), (63, 21)])
    def test_apply_and_adjoint_match_dense_oracle(self, n, m):
        Z = make_partial_circulant(m, n, rng(n + m))
        D = dense_matrix(Z)
        v = rng(n).standard_normal(n)
        y = rng(m).standard_normal(m)
        np.testing.assert_allclose(Z.apply(v), D @ v, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(Z.adjoint(y), D.T @ y, rtol=1e-10, atol=1e-12)

    def test_columns_match_dense_oracle(self):
        Z = make_partial_circulant(24, 96, rng(11))
        idx = np.array([0, 5, 17, 95])
        A, G, c = Z.columns(idx)
        np.testing.assert_allclose(A, dense_matrix(Z)[:, idx], rtol=1e-12)
        S = np.array([Z.row(i) for i in range(Z.m)])[:, idx].astype(np.int64)  # the +-1 signs
        assert np.array_equal(G, S.T @ S) and np.array_equal(c, S.sum(axis=0))

    @pytest.mark.parametrize("n, m", [(1, 1), (31, 5), (32, 32), (33, 8), (1000, 40)])
    def test_generator_is_one_bit_a_sign_then_omega(self, n, m):
        # z takes the first n bits of the stream's uint32 draws, as a
        # 1 x n dense ensemble would, and omega is the choice drawn next
        Z = make_partial_circulant(m, n, rng(n))
        gen = rng(n)
        assert np.array_equal(Z.z, rademacher_reference(1, n, gen)[0])
        assert np.array_equal(Z.omega, np.sort(gen.choice(n, size=m, replace=False)))

    def test_generator_entries_and_omega(self):
        Z = make_partial_circulant(10, 40, rng(5))
        assert np.all(np.isin(Z.z, (-1.0, 1.0)))
        assert np.unique(Z.omega).size == 10
        assert Z.omega.min() >= 0 and Z.omega.max() < 40

    def test_storage_is_generator_plus_indices(self):
        # no dense materialization: O(n + m) scalars
        Z = make_partial_circulant(64, 4096, rng(6))
        assert not hasattr(Z, "rows")
        assert Z.z.size == 4096 and Z.omega.size == 64

    def test_m_greater_than_n_rejected(self):
        with pytest.raises(ConfigurationError):
            make_partial_circulant(50, 10, rng())

    def test_bad_sizes_rejected(self):
        for m, n in [(0, 8), (4, -1), (2.5, 8), (4, 8.0), (True, 8), (4, "8"), (4, None)]:
            with pytest.raises(ConfigurationError):
                make_partial_circulant(m, n, rng())
        assert make_partial_circulant(np.int64(4), np.int32(8), rng()).m == 4

    @pytest.mark.parametrize("n, m", [(1, 1), (7, 3), (96, 24), (1000, 40)])
    def test_rows_and_directions_equal_roll_reference(self, n, m):
        Z = make_partial_circulant(m, n, rng(n))
        for i in range(m):
            assert np.array_equal(Z.row(i), np.roll(Z.z, -int(Z.omega[i])))
        cols = rng(n + 1).choice(n, size=min(n, 9), replace=False)
        reference = np.stack([np.roll(Z.z, -int(o))[cols] for o in Z.omega])
        assert np.array_equal(Z.directions(cols), reference)

    def test_rows_cannot_write_the_generator(self):
        # a row is a float64 copy of the float32 generator, and the
        # generator itself is read-only
        Z = make_partial_circulant(4, 16, rng(9))
        z = Z.z.copy()
        row = Z.row(1)
        assert row.dtype == np.float64 and Z._zz.dtype == np.float32
        row[0] = 5.0
        assert Z.z.tobytes() == z.tobytes()
        with pytest.raises(ValueError):
            Z.z[0] = 5.0

    def test_with_new_omega_keeps_generator(self):
        Z = make_partial_circulant(16, 256, rng(7))
        Z2 = Z.with_new_omega(rng(8))
        assert Z2.z is Z.z and Z2._zf is Z._zf  # a reshuffle copies nothing
        assert Z2.m == Z.m
        assert not np.array_equal(Z2.omega, Z.omega)


class TestAdjointAndLinearity:
    @pytest.mark.parametrize("make", ["rademacher", "circulant"])
    def test_adjoint_consistency(self, make):
        n, m = 120, 48
        if make == "rademacher":
            Z = make_rademacher(m, n, rng(21))
        else:
            Z = make_partial_circulant(m, n, rng(21))
        gen = rng(22)
        for _ in range(100):
            v = gen.standard_normal(n)
            y = gen.standard_normal(m)
            lhs = float(Z.apply(v) @ y)
            rhs = float(v @ Z.adjoint(y))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        Z = make_partial_circulant(32, 96, rng(33))
        gen = rng(seed)
        u, v = gen.standard_normal(96), gen.standard_normal(96)
        lhs = Z.apply(a * u + b * v)
        rhs = a * Z.apply(u) + b * Z.apply(v)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-9)


class TestRequiredRows:
    def test_arithmetic(self):
        # ceil(42 * ln 4000) = 349
        assert required_rows(42, 4000, b1=1.0) == 349

    def test_clamped_to_n(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert required_rows(60, 100) == 100

    def test_clamp_warning_names_s_n_and_unclamped_m(self):
        # ceil(4 * 100 * ln 100) = 1843 rows for a 100-column block
        with pytest.warns(UserWarning, match="s=100 needs m=1843 rows, clamped to the block size n=100"):
            assert required_rows(100, 100, b1=4.0) == 100

    def test_huge_b1_clamps_with_the_warning(self):
        # b1 * s * ln n overflows to inf, which clamps like any product above n
        with pytest.warns(UserWarning, match="s=5 needs m=inf rows, clamped to the block size n=100"):
            assert required_rows(5, 100, b1=1e308) == 100

    def test_no_warning_without_clamp(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert required_rows(53, 5000, b1=4.0) == 1806
            assert required_rows(53, 5000) == 903

    def test_clamped_above_sparsity(self):
        assert required_rows(5, 1000, b1=1e-6) == 6

    def test_b1_range_accepted(self):
        for b1 in (1.0, 2.5, 4.0):
            assert required_rows(10, 500, b1=b1) >= 11

    def test_errors(self):
        with pytest.raises(ConfigurationError):
            required_rows(50, 10)
        for b1 in (0.0, float("nan"), float("inf"), True, "2", None):
            with pytest.raises(ConfigurationError):
                required_rows(5, 10, b1=b1)
        # sizes that are not integers: 2.5 would give ceil(2 * 2.5 * ln 100) = 24 rows
        for s, n in [(2.5, 100), (5, 100.0), (True, 100), (5, "100"), (None, 100)]:
            with pytest.raises(ConfigurationError):
                required_rows(s, n)
        assert required_rows(np.int64(5), np.int32(100)) == required_rows(5, 100)


def test_rip_spot_check():
    # statistical near-isometry of Z / sqrt(m) on 4s-sparse unit vectors
    n, s, m = 1024, 8, 512
    Z = make_partial_circulant(m, n, rng(99))
    gen = rng(100)
    hits = 0
    for _ in range(200):
        v = np.zeros(n)
        support = gen.choice(n, size=4 * s, replace=False)
        v[support] = gen.standard_normal(4 * s)
        v /= np.linalg.norm(v)
        if abs(np.linalg.norm(Z.apply(v)) ** 2 / m - 1.0) <= 0.3843:
            hits += 1
    assert hits >= 198
