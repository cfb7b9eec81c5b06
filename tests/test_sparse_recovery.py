import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zobcd.core import NumericalFailure, RngStreams
from zobcd.sampling import (
    PartialCirculantEnsemble,
    RademacherEnsemble,
    make_partial_circulant,
    make_rademacher,
    required_rows,
)
from zobcd import sampling, sparse_recovery
from zobcd.sparse_recovery import (
    SparseVector,
    cosamp,
    restricted_lsq,
    top_k_magnitude,
)


def rng(seed=0):
    return RngStreams(seed).substream("directions")


def plain_gram(A):
    """restricted_lsq's gram formed from A in float64: (A^T A, A^T 1)."""
    return A.T @ A, A.T @ np.ones(A.shape[0])


def planted_instance(n, s, m, seed, unit=False):
    gen = rng(seed)
    Z = make_rademacher(m, n, gen)
    g = np.zeros(n)
    support = gen.choice(n, size=s, replace=False)
    if unit:
        g[support] = gen.choice([-1.0, 1.0], size=s)
    else:
        g[support] = gen.standard_normal(s) + np.sign(gen.standard_normal(s))
    return Z, g, np.sort(support)


class TestTopK:
    def test_tie_between_magnitudes(self):
        assert np.array_equal(top_k_magnitude(np.array([3.0, -5.0, 5.0, 0.0]), 2), [1, 2])

    def test_lowest_index_tie_break(self):
        assert np.array_equal(top_k_magnitude(np.array([1.0, 1.0, 1.0]), 2), [0, 1])

    def test_k_zero(self):
        assert top_k_magnitude(np.array([1.0, 2.0]), 0).size == 0

    def test_fewer_nonzeros_than_k(self):
        assert np.array_equal(top_k_magnitude(np.array([0.0, 2.0, 0.0]), 3), [1])


    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 3.0]), max_size=40),
        st.integers(0, 45),
    )
    def test_matches_full_sort_reference(self, values, k):
        # the partition-based selection against a full lexsort, on ties and zeros
        v = np.array(values, dtype=np.float64)
        mag = np.abs(v)
        order = np.lexsort((np.arange(v.size), -mag))[:k]
        expected = np.sort(order[mag[order] > 0])
        assert np.array_equal(top_k_magnitude(v, k), expected)

    def test_nan_never_qualifies(self):
        assert np.array_equal(top_k_magnitude(np.array([np.nan, 1.0, np.nan, 0.0, 2.0]), 2), [1, 4])
        assert np.array_equal(top_k_magnitude(np.array([np.nan, np.nan, 3.0]), 1), [2])


class TestSparseVector:
    def test_roundtrip(self):
        v = np.zeros(10)
        v[[3, 6]] = [1.5, -2.0]
        sv = SparseVector(np.array([3, 6]), np.array([1.5, -2.0]), 10)
        assert np.array_equal(sv.to_dense(), v)
        assert sv.nnz == 2

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([5, 2]), np.array([1.0, 1.0]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SparseVector(np.array([10]), np.array([1.0]), 10)


class TestRestrictedLsq:
    def test_empty_support(self):
        for Z in (make_rademacher(8, 16, rng(1)), make_partial_circulant(8, 16, rng(1))):
            A, G, c = Z.columns(np.array([], dtype=int))
            assert (A.shape, G.shape, c.shape) == ((8, 0), (0, 0), (0,))
            assert restricted_lsq(A, np.ones(8), gram=(G, c)).size == 0

    def test_orthonormal_rows_exact(self):
        # 10x4 matrix with orthonormal columns orthogonal to 1: centring
        # leaves them as they are, and the pseudo-inverse is the transpose
        gen = rng(2)
        Q = np.linalg.qr(np.column_stack((np.ones(10), gen.standard_normal((10, 4)))))[0][:, 1:]
        w_true = gen.standard_normal(4)
        y = Q @ w_true
        assert abs(y.mean()) <= 1e-15
        w = restricted_lsq(Q, y, gram=plain_gram(Q))
        np.testing.assert_allclose(w, w_true, atol=1e-10)

    def test_overdetermined_matches_dense_qr_oracle(self):
        Z = make_rademacher(32, 64, rng(3))
        support = np.array([4, 20, 41])
        y = rng(4).standard_normal(32)
        y -= y.mean()
        A = Z.columns(support)[0]
        w = restricted_lsq(A, y, gram=plain_gram(A))
        Q, R = np.linalg.qr(A - A.mean(axis=0))
        expected = np.linalg.solve(R, Q.T @ y)
        np.testing.assert_allclose(w, expected, rtol=1e-8, atol=1e-10)

    def test_underdetermined_warns(self):
        Z = make_rademacher(4, 64, rng(5))
        with pytest.warns(UserWarning, match="underdetermined"):
            A = Z.columns(np.arange(10))[0]
            restricted_lsq(A, np.ones(4), gram=plain_gram(A))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 12), st.data())
    def test_matches_minimum_norm_lstsq(self, m, data):
        # The fit of a centred y on the centred columns of Rademacher gathers
        # that are full rank, rank deficient (a column repeated or negated,
        # or constant, which centres to a zero column, alone or beside
        # others) or underdetermined (|support| > m)
        k = data.draw(st.integers(1, 2 * m), label="|support|")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        gen = np.random.default_rng(seed)
        cols = gen.choice([-1.0, 1.0], size=(m, k))
        if k >= 2 and data.draw(st.booleans(), label="dependent column"):
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            cols[:, j] = data.draw(st.sampled_from([1.0, -1.0]), label="sign") * cols[:, i]
        if data.draw(st.booleans(), label="constant column"):
            cols[:, data.draw(st.integers(0, k - 1))] = data.draw(st.sampled_from([1.0, -1.0]))
        y = gen.standard_normal(m)
        y -= y.mean()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the underdetermined case warns
            w = restricted_lsq(cols, y, gram=plain_gram(cols))
        # centred on the integer signs, where a constant column centres to 0
        P = cols - cols.mean(axis=0)
        expected = np.linalg.lstsq(P, y, rcond=None)[0]
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-9)

    def test_centred_constant_column_gets_no_weight(self):
        # Centring zeroes a constant column. Alone, its pivot has no larger
        # one to be judged against; beside another column, it makes the Gram
        # singular. Either way the minimum-norm fit gives it weight 0.
        for m in range(3, 40):
            y = rng(m).standard_normal(m)
            y -= y.mean()
            other = rng(m + 100).choice([-1.0, 1.0], size=m)
            for cols in (np.ones((m, 1)), -np.ones((m, 1)), np.column_stack((np.ones(m), other))):
                w = restricted_lsq(cols, y, gram=plain_gram(cols))
                assert abs(w[0]) <= 1e-12, (m, w)


@st.composite
def signed_gathers(draw):
    """(Z, idx): a dense ensemble, a truncated view of a larger one as unequal
    blocks use, or a partial circulant one, and a column index set that may
    repeat a column or hold a column beside its negation."""
    kind = draw(st.sampled_from(["R", "R view", "RC"]), label="ensemble")
    n = draw(st.integers(2, 24), label="n")
    m = draw(st.integers(1, n if kind == "RC" else 40), label="m")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True), label="pair")
    negated = draw(st.booleans(), label="negated pair")
    if kind == "RC":
        z = gen.choice([-1.0, 1.0], size=n)
        if negated and n % 2 == 0:
            # z[t + n/2] = -z[t] makes every column c + n/2 the negation of column c
            z[n // 2 :] = -z[: n // 2]
            i, j = i % (n // 2), i % (n // 2) + n // 2
        Z = PartialCirculantEnsemble(z, gen.choice(n, size=m, replace=False))
    else:
        extra = 3 if kind == "R view" else 0
        cols = gen.choice([-1.0, 1.0], size=(n + extra, m + extra)).astype(np.float32)
        if negated:
            cols[j] = -cols[i]
        if draw(st.booleans(), label="constant column"):
            cols[i] = 1.0
        Z = RademacherEnsemble(cols=cols[:n, :m])
    idx = draw(st.lists(st.integers(0, n - 1), min_size=0, max_size=n + 4), label="idx")  # repeats allowed
    return Z, np.array(idx + [i, j], dtype=np.intp)


class TestExactGram:
    @settings(max_examples=300, deadline=None)
    @given(signed_gathers())
    def test_gram_is_the_integer_gram_of_the_signs(self, gather):
        # One gather gives the fit all three: A, the signs bit for bit and in
        # the memory order of directions, and their exact integer Gram
        Z, idx = gather
        S = Z.directions(idx)
        assert np.all(np.abs(S) == 1.0)
        A, G, c = Z.columns(idx)
        assert A.dtype == np.float64
        assert (A.flags.c_contiguous, A.flags.f_contiguous) == (S.flags.c_contiguous, S.flags.f_contiguous)
        assert A.tobytes(order="A") == S.tobytes(order="A")
        S = S.astype(np.int64)
        assert G.dtype == c.dtype == np.float64
        assert np.array_equal(G, S.T @ S) and np.array_equal(c, S.sum(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(signed_gathers())
    def test_float64_gram_branch_equals_the_float32_one(self, gather):
        # From m = 2**24 rows on, float32 no longer sums the Gram exactly and
        # columns sums it in float64. With that threshold lowered below m,
        # both branches give the same A, G and c, bit for bit
        Z, idx = gather
        want = Z.columns(idx)
        with patch.object(sampling, "_FLOAT32_EXACT", 1):
            got = Z.columns(idx)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.float64
            assert (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)
            assert a.tobytes(order="A") == b.tobytes(order="A")

    @pytest.mark.parametrize("n, m", [(1, 1), (33, 8), (200, 60), (1000, 200)])
    def test_circulant_gram_equals_the_float64_products_of_its_signs(self, n, m):
        # A, G and c are the signs read from the rows, and their float64
        # S^T S and S.sum(axis=0), over random gathers that may repeat a column
        Z = make_partial_circulant(m, n, rng(n + m))
        rows = np.stack([Z.row(i) for i in range(m)])  # float64 +-1
        gen = np.random.default_rng(n * m)
        for size in (0, 1, min(n, 17), n + 5):
            idx = gen.integers(0, n, size=size)
            A, G, c = Z.columns(idx)
            S = rows[:, idx]
            assert A.tobytes() == S.tobytes()
            assert G.tobytes() == (S.T @ S).tobytes() and c.tobytes() == S.sum(axis=0).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(signed_gathers())
    def test_centred_normal_matrix_is_exact(self, gather):
        # only the division by m rounds: the normal matrix is the exact
        # integer m G - c c^T, divided by m
        Z, idx = gather
        S = Z.directions(idx).astype(np.int64)
        assume(idx.size <= Z.m)  # an underdetermined fit goes straight to lstsq
        numerator = Z.m * (S.T @ S) - np.outer(S.sum(axis=0), S.sum(axis=0))
        A, G, c = Z.columns(idx)
        factored, cholesky = [], np.linalg.cholesky
        with patch.object(np.linalg, "cholesky", lambda a: factored.append(a.copy()) or cholesky(a)):
            restricted_lsq(A, np.zeros(Z.m), gram=(G, c))
        assert len(factored) == 1
        assert factored[0].tobytes() == (numerator.astype(np.float64) / Z.m).tobytes()

    @pytest.mark.parametrize("eps, solved", [(0.5, False), (0.6, True)])
    def test_pivots_are_judged_against_the_largest_column_norm(self, eps, solved, monkeypatch):
        # Orthogonal centred columns of squared norms 2e6 and eps^2 * 2/3:
        # the second pivot is eps^2 * 2/3 against 1e-7 * max(diag G) = 0.2,
        # below it at eps = 0.5 (lstsq) and above it at eps = 0.6 (a solve)
        A = np.array([[1000.0, 0.0], [-1000.0, 0.0], [0.0, eps]])
        y = np.array([1.0, -2.0, 1.0])
        fallbacks, lstsq = [], np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: fallbacks.append(1) or lstsq(*a, **kw))
        for gram in (plain_gram(A), (A.T @ A, A.sum(axis=0))):
            fallbacks.clear()
            w = restricted_lsq(A, y, gram=gram)
            assert fallbacks == ([] if solved else [1])
            np.testing.assert_allclose(w, [1.5e-3, 1.5 / eps], rtol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(signed_gathers(), st.integers(0, 2**32 - 1))
    def test_fit_equals_the_plain_float_path_bit_for_bit(self, gather, seed):
        # The ensemble's exact Gram and the one formed from A are the same
        # integers, so the two fits agree bit for bit: full rank or not, and
        # with more columns than rows, where both take lstsq
        Z, idx = gather
        A, G, c = Z.columns(idx)
        y = np.random.default_rng(seed).standard_normal(Z.m)
        y -= y.mean()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the underdetermined case warns
            exact = restricted_lsq(A, y, gram=(G, c))
            plain = restricted_lsq(A, y, gram=plain_gram(A))
        assert exact.tobytes() == plain.tobytes()


class TestCosamp:
    def test_zero_measurements(self):
        Z = make_rademacher(16, 64, rng(6))
        out = cosamp(Z, np.zeros(16), 3)
        assert out.nnz == 0 and out.dim == 64

    @pytest.mark.parametrize("make", [make_rademacher, make_partial_circulant])
    def test_one_gather_per_fit(self, make, monkeypatch):
        # each fit takes its columns and their Gram from one Z.columns call,
        # which gathers the signs itself, on both ensembles
        Z, g, _ = planted_instance(200, 6, 60, seed=71)
        if make is make_partial_circulant:
            Z = make(60, 200, rng(71))
        cls, seen = type(Z), []
        for name in ("columns", "directions"):
            real = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, idx, real=real, name=name: seen.append(name) or real(self, idx))
        y = Z.apply(g) + 0.05 * np.sqrt(60) * rng(72).standard_normal(60)
        calls = []
        cosamp(Z, y, 6, on_iterate=recorder(calls))
        assert len(calls) >= 2 and seen == ["columns"] * len(calls)

    # An offset that every measurement shares is fitted and discarded
    @pytest.mark.parametrize("offset", [0.0, 2.5])
    def test_exact_recovery_over_seeds(self, offset):
        n, s, m = 64, 3, 32
        successes = 0
        for seed in range(100):
            Z, g, support = planted_instance(n, s, m, seed, unit=True)
            est = cosamp(Z, Z.apply(g) + offset, s)
            if np.array_equal(est.indices, support) and np.allclose(
                est.values, g[support], atol=1e-8
            ):
                successes += 1
        assert successes >= 99

    @pytest.mark.parametrize("offset", [0.0, -2.5])
    def test_circulant_exact_recovery_at_the_row_rule(self, offset):
        # acceptance test_01's protocol on the partial circulant ensemble
        n, s = 1024, 10
        m = required_rows(s, n)
        assert m == 139
        successes = 0
        for seed in range(100):
            gen = np.random.default_rng(seed)
            Z = make_partial_circulant(m, n, gen)
            support = gen.choice(n, size=s, replace=False)
            g = np.zeros(n)
            g[support] = gen.standard_normal(s)
            est = cosamp(Z, Z.apply(g) + offset, s).to_dense()
            if set(np.nonzero(est)[0]) == set(support) and np.linalg.norm(est - g) <= 1e-8 * np.linalg.norm(g):
                successes += 1
        assert successes >= 99

    def test_noise_robustness(self):
        n, s, m = 64, 3, 32
        successes = 0
        noise_gen = rng(777)
        for seed in range(100):
            Z, g, _ = planted_instance(n, s, m, seed, unit=True)
            e = noise_gen.standard_normal(m)
            e *= 0.01 * np.sqrt(m) / np.linalg.norm(e)
            est = cosamp(Z, Z.apply(g) + e, s)
            if np.linalg.norm(est.to_dense() - g) <= 20 * 0.01:
                successes += 1
        assert successes >= 95

    def test_output_sparsity_budget(self):
        for seed in range(20):
            Z, g, _ = planted_instance(128, 7, 60, seed)
            est = cosamp(Z, Z.apply(g) + 0.05 * np.sqrt(60) * rng(seed + 1000).standard_normal(60), 7)
            assert est.nnz <= 7

    def test_circulant_operator_recovery(self):
        gen = rng(31)
        n, s = 512, 6
        m = 38  # about half of required_rows(s, n) = 75, so recovery is not easy
        Z = make_partial_circulant(m, n, gen)
        g = np.zeros(n)
        support = gen.choice(n, size=s, replace=False)
        g[support] = gen.standard_normal(s) + np.sign(gen.standard_normal(s))
        est = cosamp(Z, Z.apply(g), s)
        np.testing.assert_allclose(est.to_dense(), g, atol=1e-7)

    def test_monotone_residual(self):
        # non-increasing residual on well-conditioned instances; <= 1/100 violations
        violations = 0
        for seed in range(100):
            Z, g, _ = planted_instance(96, 4, 40, seed)
            history = []
            cosamp(Z, Z.apply(g), 4, on_iterate=lambda k, e, r: history.append(r))
            if any(b > a * (1 + 1e-9) for a, b in zip(history, history[1:])):
                violations += 1
        assert violations <= 1

    def test_contraction_rate(self):
        # noiseless planted instances at m = 2 s ln n: median error ratio <= 0.5
        n, s = 256, 8
        m = int(np.ceil(2 * s * np.log(n)))
        ratios = []
        for seed in range(30):
            Z, g, _ = planted_instance(n, s, m, seed)
            errors = [np.linalg.norm(g)]
            cosamp(
                Z,
                Z.apply(g),
                s,
                on_iterate=lambda k, est, r: errors.append(np.linalg.norm(est.to_dense() - g)),
            )
            for prev, cur in zip(errors, errors[1:]):
                if prev > 1e-9 * np.linalg.norm(g):
                    ratios.append(cur / prev)
        assert np.median(ratios) <= 0.5

    @pytest.mark.parametrize("s", [3, 10])  # 10 >= n/2: the first fit takes every column
    def test_non_finite_measurements_raise(self, s):
        Z = make_rademacher(16, 16, rng(43))
        y = np.ones(16)
        y[5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericalFailure):
                cosamp(Z, y, s)

    def test_degenerate_sparsity_falls_back(self):
        # s >= n/2 on 24 rows: the loop's first fit is the full, well-posed
        # least-squares fit, and nothing warns. The centred fit has m - 1
        # degrees of freedom, so a square ensemble would leave it singular.
        Z = make_rademacher(24, 16, rng(41))
        y = Z.apply(rng(42).standard_normal(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = cosamp(Z, y, 10)
            A, G, c = Z.columns(np.arange(16))
            w = restricted_lsq(A, y - y.mean(), gram=(G, c))
        keep = top_k_magnitude(w, 10)
        assert est.indices.tobytes() == keep.tobytes()
        assert est.values.tobytes() == w[keep].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 120),
        data=st.data(),
        noise=st.sampled_from([0.0, 1e-3]),
        max_fits=st.integers(1, 11),
        circulant=st.booleans(),
    )
    def test_half_or_more_of_n_gives_the_full_fit(self, seed, n, data, noise, max_fits, circulant):
        s = data.draw(st.integers((n + 1) // 2, n), label="s")
        # a circulant ensemble has at most n rows; a dense one may have more,
        # which leaves the centred full fit well posed
        m = data.draw(st.integers(1, n if circulant else 2 * n), label="m")
        gen = rng(seed)
        Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
        g = np.zeros(n)
        g[gen.choice(n, size=s, replace=False)] = gen.standard_normal(s)
        y = Z.apply(g) + noise * np.sqrt(m) * gen.standard_normal(m)
        calls = []
        with patch.object(sparse_recovery, "_MAX_FITS", max_fits), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits when m <= n
            est = cosamp(Z, y, s, on_iterate=recorder(calls))
            y = y - y.mean()  # the measurements cosamp fits
            A, G, c = Z.columns(np.arange(n))
            w = restricted_lsq(A, y, gram=(G, c))
        keep = top_k_magnitude(w, s)
        # A zero proxy entry keeps its column out of a fit: out of the first
        # one if y's proxy has it, and out of the refit if the residual's does
        # outside the kept columns. Noiseless instances with m <= n make such
        # entries zero in exact arithmetic, where rounding leaves them at
        # exactly 0 or at 1e-16 by chance.
        assume(Z.top_adjoint(y, 2 * s).size == n)
        # the residual exactly as cosamp forms it, from a column selection of
        # the full fit's A: BLAS rounds the product differently on a fresh
        # gather of those columns, whose memory order differs
        fitted = A[:, keep] @ w[keep]
        r = y - (fitted - fitted.mean())
        if max_fits > 1 and np.linalg.norm(r) > 1e-12 * np.linalg.norm(y):
            assume(np.union1d(keep, Z.top_adjoint(r, 2 * s)).size == n)
        assert est.indices.tobytes() == keep.tobytes()
        assert est.values.tobytes() == w[keep].tobytes()
        # on_iterate sees the full fit, then at most its refit
        assert 1 <= len(calls) <= 2
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())


# The stall rule's epsilon, written here apart from the library's constant.
STALL_EPS = 0.01


def cosamp_solving_every_iteration(Z, y, s, max_fits, on_iterate=None):
    """CoSaMP as the paper states it, on centred measurements and columns,
    written apart from the library: every iteration ranks the proxy with
    ``Z.top_adjoint`` and solves from the ensemble's exact Gram, as the
    library does. It stops after max_fits iterations, once a fit k >= 1
    lowers the residual norm by less than STALL_EPS of the previous fit's, or
    once the residual falls to 1e-12 * ||y - mean(y)||."""
    y = y - y.mean()
    ynorm = float(np.linalg.norm(y))
    estimate = SparseVector.empty(Z.n)
    r = y.copy()
    norms = []
    for k in range(max_fits):
        candidates = Z.top_adjoint(r, 2 * s)
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        A, G, c = Z.columns(merged)
        w = restricted_lsq(A, y, gram=(G, c))
        keep_local = top_k_magnitude(w, s)
        estimate = SparseVector(merged[keep_local], w[keep_local], Z.n)
        # from the fit's own columns, as the library does: BLAS rounds a
        # product with RC's C-ordered Z.columns copy differently
        fitted = A[:, keep_local] @ estimate.values
        r = y - (fitted - fitted.mean())
        norms.append(float(np.linalg.norm(r)))
        if on_iterate is not None:
            on_iterate(k, estimate, norms[-1])
        if len(norms) > 1 and not norms[-1] < (1 - STALL_EPS) * norms[-2]:
            break
        if norms[-1] <= 1e-12 * ynorm:
            break
    return estimate


def recorder(calls):
    return lambda k, est, rnorm: calls.append((k, est.indices.tobytes(), est.values.tobytes(), rnorm))


# Planted instances on R and RC operators, noiseless to very noisy, with every
# iteration cap from one to past the point where runs stop on their own.
NOISY_INSTANCES = dict(
    seed=st.integers(0, 10_000),
    n=st.integers(12, 160),
    s=st.integers(1, 6),
    rows=st.floats(0.2, 1.0),
    noise=st.sampled_from([0.0, 1e-6, 1e-2, 1.0]),
    max_fits=st.integers(1, 14),
    circulant=st.booleans(),
)


def noisy_instance(seed, n, s, rows, noise, max_fits, circulant):
    """(Z, y, s, max_fits) for a planted s-sparse vector plus Gaussian noise."""
    s = min(s, (n - 1) // 2)
    m = max(s + 1, int(rows * n))
    gen = rng(seed)
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    g = np.zeros(n)
    g[gen.choice(n, size=s, replace=False)] = gen.standard_normal(s)
    y = Z.apply(g) + noise * np.sqrt(m) * gen.standard_normal(m)
    return Z, y, s, max_fits


class TestFixedPointExit:
    @settings(max_examples=60, deadline=None)
    @given(**NOISY_INSTANCES)
    def test_equals_running_every_iteration(self, **instance):
        Z, y, s, max_fits = noisy_instance(**instance)
        with patch.object(sparse_recovery, "_MAX_FITS", max_fits), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits at small m
            got = cosamp(Z, y, s)
            ref = cosamp_solving_every_iteration(Z, y, s, max_fits)
            calls, ref_calls = [], []
            observed = cosamp(Z, y, s, on_iterate=recorder(calls))
            cosamp_solving_every_iteration(Z, y, s, max_fits, on_iterate=recorder(ref_calls))
        for est in (got, observed):
            assert est.dim == ref.dim
            assert est.indices.tobytes() == ref.indices.tobytes()
            assert est.values.tobytes() == ref.values.tobytes()
        assert calls == ref_calls

    def test_stops_at_a_repeated_iterate(self, monkeypatch):
        # four fits, each lowering the residual by more than 1 %; the fifth
        # iteration refits the fourth's support, and the stall rule stops there
        # (seed 108 is an instance on which the centred solve does this)
        gathers, real = [], sparse_recovery.restricted_lsq
        monkeypatch.setattr(
            sparse_recovery, "restricted_lsq", lambda A, y, **kw: gathers.append(A.copy()) or real(A, y, **kw)
        )
        Z, g, _ = planted_instance(200, 6, 60, seed=108)
        y = Z.apply(g) + 0.05 * np.sqrt(60) * rng(109).standard_normal(60)
        calls, ref_calls = [], []
        est = cosamp(Z, y, 6, on_iterate=recorder(calls))
        cosamp_solving_every_iteration(Z, y, 6, sparse_recovery._MAX_FITS, on_iterate=recorder(ref_calls))
        assert calls == ref_calls and len(calls) == 5
        assert len(gathers) == len(calls)  # one fit per iteration seen
        assert np.array_equal(gathers[3], gathers[4])  # the fifth fit repeats the fourth's columns
        norms = [c[3] for c in calls]
        assert all(b < (1 - STALL_EPS) * a for a, b in zip(norms[:-2], norms[1:-1]))
        # the refit is the last iterate, its predecessor bit for bit, seen once
        assert calls[-1][1:] == calls[-2][1:]
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())


class TestStallExit:
    @settings(max_examples=120, deadline=None)
    @given(**NOISY_INSTANCES)
    def test_stops_on_the_first_stalled_fit(self, **instance):
        Z, y, s, max_fits = noisy_instance(**instance)
        calls = []
        with patch.object(sparse_recovery, "_MAX_FITS", max_fits), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits at small m
            est = cosamp(Z, y, s, on_iterate=recorder(calls))
        y = y - y.mean()  # the measurements cosamp fits
        if not calls:  # nothing to fit: y = 0, or its proxy has no nonzero entry
            assert est.nnz == 0
            assert not np.any(y) or top_k_magnitude(Z.adjoint(y), 2 * s).size == 0
            return
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())
        norms = [c[3] for c in calls]
        # every iterate but the last fell by more than epsilon ...
        assert all(b < (1 - STALL_EPS) * a for a, b in zip(norms, norms[1:-1]))
        # ... and the last is the first that did not, or another exit fired
        stalled = len(norms) > 1 and not norms[-1] < (1 - STALL_EPS) * norms[-2]
        capped = len(calls) == max_fits
        solved = norms[-1] <= 1e-12 * np.linalg.norm(y)
        assert stalled or capped or solved

    def test_the_first_fit_never_stalls(self):
        # pure noise on four columns: the first fit lowers the residual by far
        # less than epsilon of ||y||, and the solver still makes a second
        # iteration, which stalls
        Z = make_rademacher(2000, 4, rng(60))
        y = rng(61).standard_normal(2000)
        calls = []
        cosamp(Z, y, 1, on_iterate=recorder(calls))
        assert calls[0][3] > (1 - STALL_EPS) * np.linalg.norm(y)
        assert len(calls) == 2
