import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from zobcd.core import NumericalFailure, RngStreams
from zobcd.sampling import make_partial_circulant, make_rademacher, required_rows
from zobcd.sparse_recovery import (
    CosampConfig,
    SparseVector,
    cosamp,
    restricted_lsq,
    top_k_magnitude,
)


def rng(seed=0):
    return RngStreams(seed).substream("directions")


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
        Z = make_rademacher(8, 16, rng(1))
        assert restricted_lsq(Z, np.ones(8), np.array([], dtype=int)).size == 0

    def test_orthonormal_rows_exact(self):
        # 10x4 operator with orthonormal columns: pseudo-inverse is the transpose
        gen = rng(2)
        Q, _ = np.linalg.qr(gen.standard_normal((10, 4)))

        class Op:
            m, n = 10, 4

            def columns(self, idx):
                return Q[:, idx]

        w_true = gen.standard_normal(4)
        y = Q @ w_true
        w = restricted_lsq(Op(), y, np.arange(4))
        np.testing.assert_allclose(w, w_true, atol=1e-10)

    def test_overdetermined_matches_dense_qr_oracle(self):
        Z = make_rademacher(32, 64, rng(3))
        support = np.array([4, 20, 41])
        y = rng(4).standard_normal(32)
        w = restricted_lsq(Z, y, support)
        expected, *_ = np.linalg.lstsq(Z.columns(support), y, rcond=None)
        np.testing.assert_allclose(w, expected, rtol=1e-8, atol=1e-10)

    def test_underdetermined_warns(self):
        Z = make_rademacher(4, 64, rng(5))
        with pytest.warns(UserWarning, match="underdetermined"):
            restricted_lsq(Z, np.ones(4), np.arange(10))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 12), st.data())
    def test_matches_minimum_norm_lstsq(self, m, data):
        # Rademacher gathers that are full rank, rank deficient (a column
        # repeated or negated) or underdetermined (|support| > m)
        k = data.draw(st.integers(1, 2 * m), label="|support|")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        gen = np.random.default_rng(seed)
        cols = gen.choice([-1.0, 1.0], size=(m, k))
        if k >= 2 and data.draw(st.booleans(), label="dependent column"):
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            cols[:, j] = data.draw(st.sampled_from([1.0, -1.0]), label="sign") * cols[:, i]
        y = gen.standard_normal(m)

        class Op:
            def __init__(self):
                self.m, self.n = m, k

            def columns(self, idx):
                return cols[:, idx] / np.sqrt(m)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the underdetermined case warns
            w = restricted_lsq(Op(), y, np.arange(k))
        expected = np.linalg.lstsq(cols / np.sqrt(m), y, rcond=None)[0]
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-9)


class TestCosamp:
    def test_zero_measurements(self):
        Z = make_rademacher(16, 64, rng(6))
        out = cosamp(Z, np.zeros(16), CosampConfig(s=3))
        assert out.nnz == 0 and out.dim == 64

    def test_exact_recovery_over_seeds(self):
        n, s, m = 64, 3, 32
        successes = 0
        for seed in range(100):
            Z, g, support = planted_instance(n, s, m, seed, unit=True)
            est = cosamp(Z, Z.apply(g), CosampConfig(s=s))
            if np.array_equal(est.indices, support) and np.allclose(
                est.values, g[support], atol=1e-8
            ):
                successes += 1
        assert successes >= 99

    def test_circulant_exact_recovery_at_the_row_rule(self):
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
            est = cosamp(Z, Z.apply(g), CosampConfig(s=s)).to_dense()
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
            e *= 0.01 / np.linalg.norm(e)
            est = cosamp(Z, Z.apply(g) + e, CosampConfig(s=s))
            if np.linalg.norm(est.to_dense() - g) <= 20 * 0.01:
                successes += 1
        assert successes >= 95

    def test_output_sparsity_budget(self):
        for seed in range(20):
            Z, g, _ = planted_instance(128, 7, 60, seed)
            est = cosamp(Z, Z.apply(g) + 0.05 * rng(seed + 1000).standard_normal(60), CosampConfig(s=7))
            assert est.nnz <= 7

    def test_circulant_operator_recovery(self):
        gen = rng(31)
        n, s = 512, 6
        m = 38  # about half of required_rows(s, n) = 75, so recovery is not easy
        Z = make_partial_circulant(m, n, gen)
        g = np.zeros(n)
        support = gen.choice(n, size=s, replace=False)
        g[support] = gen.standard_normal(s) + np.sign(gen.standard_normal(s))
        est = cosamp(Z, Z.apply(g), CosampConfig(s=s))
        np.testing.assert_allclose(est.to_dense(), g, atol=1e-7)

    def test_monotone_residual(self):
        # non-increasing residual on well-conditioned instances; <= 1/100 violations
        violations = 0
        for seed in range(100):
            Z, g, _ = planted_instance(96, 4, 40, seed)
            history = []
            cosamp(Z, Z.apply(g), CosampConfig(s=4), on_iterate=lambda k, e, r: history.append(r))
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
                CosampConfig(s=s),
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
                cosamp(Z, y, CosampConfig(s=s))

    def test_degenerate_sparsity_falls_back(self):
        # s >= n/2 on a square ensemble: the loop's first fit is the full,
        # well-posed least-squares fit, and nothing warns
        Z = make_rademacher(16, 16, rng(41))
        y = Z.apply(rng(42).standard_normal(16))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = cosamp(Z, y, CosampConfig(s=10))
            w = restricted_lsq(Z, y, np.arange(16))
        keep = top_k_magnitude(w, 10)
        assert est.indices.tobytes() == keep.tobytes()
        assert est.values.tobytes() == w[keep].tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 120),
        data=st.data(),
        noise=st.sampled_from([0.0, 1e-3]),
        n_iters=st.integers(1, 11),
        circulant=st.booleans(),
    )
    def test_half_or_more_of_n_gives_the_full_fit(self, seed, n, data, noise, n_iters, circulant):
        s = data.draw(st.integers((n + 1) // 2, n), label="s")
        m = data.draw(st.integers(1, n), label="m")
        gen = rng(seed)
        Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
        g = np.zeros(n)
        g[gen.choice(n, size=s, replace=False)] = gen.standard_normal(s)
        y = Z.apply(g) + noise * gen.standard_normal(m)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits when m < n
            est = cosamp(Z, y, CosampConfig(s=s, n_iters=n_iters), on_iterate=recorder(calls))
            w = restricted_lsq(Z, y, np.arange(n))
        keep = top_k_magnitude(w, s)
        # A zero proxy entry keeps its column out of a fit: out of the first
        # one if y's proxy has it, and out of the refit if the residual's does
        # outside the kept columns. Noiseless instances with m <= n make such
        # entries zero in exact arithmetic, where rounding leaves them at
        # exactly 0 or at 1e-16 by chance.
        assume(Z.top_adjoint(y, 2 * s).size == n)
        r = y - Z.columns(keep) @ w[keep]
        if n_iters > 1 and np.linalg.norm(r) > 1e-12 * np.linalg.norm(y):
            assume(np.union1d(keep, Z.top_adjoint(r, 2 * s)).size == n)
        assert est.indices.tobytes() == keep.tobytes()
        assert est.values.tobytes() == w[keep].tobytes()
        # on_iterate sees the full fit, then at most its refit
        assert 1 <= len(calls) <= 2
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())


# The stall rule's epsilon, written here apart from the library's constant.
STALL_EPS = 0.01


def cosamp_solving_every_iteration(Z, y, cfg, on_iterate=None):
    """CoSaMP as the paper states it, written apart from the library: every
    iteration ranks the proxy with ``Z.top_adjoint`` and solves. It stops after
    n_iters iterations, once a fit k >= 1 lowers the residual norm by less
    than STALL_EPS of the previous fit's, or once the residual falls to
    1e-12 * ||y||."""
    ynorm = float(np.linalg.norm(y))
    estimate = SparseVector.empty(Z.n)
    r = y.copy()
    norms = []
    for k in range(cfg.n_iters):
        candidates = Z.top_adjoint(r, 2 * cfg.s)
        merged = np.union1d(estimate.indices, candidates)
        if merged.size == 0:
            break
        w = restricted_lsq(Z, y, merged)
        keep_local = top_k_magnitude(w, cfg.s)
        estimate = SparseVector(merged[keep_local], w[keep_local], Z.n)
        r = y - Z.columns(estimate.indices) @ estimate.values
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
    n_iters=st.integers(1, 14),
    circulant=st.booleans(),
)


def noisy_instance(seed, n, s, rows, noise, n_iters, circulant):
    """(Z, y, cfg) for a planted s-sparse vector plus Gaussian noise."""
    s = min(s, (n - 1) // 2)
    m = max(s + 1, int(rows * n))
    gen = rng(seed)
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    g = np.zeros(n)
    g[gen.choice(n, size=s, replace=False)] = gen.standard_normal(s)
    y = Z.apply(g) + noise * gen.standard_normal(m)
    return Z, y, CosampConfig(s=s, n_iters=n_iters)


class TestFixedPointExit:
    @settings(max_examples=60, deadline=None)
    @given(**NOISY_INSTANCES)
    def test_equals_running_every_iteration(self, **instance):
        Z, y, cfg = noisy_instance(**instance)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits at small m
            got = cosamp(Z, y, cfg)
            ref = cosamp_solving_every_iteration(Z, y, cfg)
            calls, ref_calls = [], []
            observed = cosamp(Z, y, cfg, on_iterate=recorder(calls))
            cosamp_solving_every_iteration(Z, y, cfg, on_iterate=recorder(ref_calls))
        for est in (got, observed):
            assert est.dim == ref.dim
            assert est.indices.tobytes() == ref.indices.tobytes()
            assert est.values.tobytes() == ref.values.tobytes()
        assert calls == ref_calls

    def test_stops_at_a_repeated_iterate(self, monkeypatch):
        # four fits, each lowering the residual by more than 1 %; the fifth
        # iteration refits the fourth's support, and the stall rule stops there
        import zobcd.sparse_recovery as sr

        supports, real = [], sr.restricted_lsq
        monkeypatch.setattr(sr, "restricted_lsq", lambda Z, y, S: supports.append(S.copy()) or real(Z, y, S))
        Z, g, _ = planted_instance(200, 6, 60, seed=52)
        y = Z.apply(g) + 0.05 * rng(53).standard_normal(60)
        cfg = CosampConfig(s=6, n_iters=10)
        calls, ref_calls = [], []
        est = cosamp(Z, y, cfg, on_iterate=recorder(calls))
        cosamp_solving_every_iteration(Z, y, cfg, on_iterate=recorder(ref_calls))
        assert calls == ref_calls and len(calls) == 5
        assert len(supports) == len(calls)  # one fit per iteration seen
        assert np.array_equal(supports[3], supports[4])  # the fifth fit repeats the fourth's support
        norms = [c[3] for c in calls]
        assert all(b < (1 - STALL_EPS) * a for a, b in zip(norms[:-2], norms[1:-1]))
        # the refit is the last iterate, its predecessor bit for bit, seen once
        assert calls[-1][1:] == calls[-2][1:]
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())


class TestStallExit:
    @settings(max_examples=120, deadline=None)
    @given(**NOISY_INSTANCES)
    def test_stops_on_the_first_stalled_fit(self, **instance):
        Z, y, cfg = noisy_instance(**instance)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # underdetermined fits at small m
            est = cosamp(Z, y, cfg, on_iterate=recorder(calls))
        if not calls:  # nothing to fit: y = 0, or its proxy has no nonzero entry
            assert est.nnz == 0
            assert not np.any(y) or top_k_magnitude(Z.adjoint(y), 2 * cfg.s).size == 0
            return
        assert calls[-1][1:3] == (est.indices.tobytes(), est.values.tobytes())
        norms = [c[3] for c in calls]
        # every iterate but the last fell by more than epsilon ...
        assert all(b < (1 - STALL_EPS) * a for a, b in zip(norms, norms[1:-1]))
        # ... and the last is the first that did not, or another exit fired
        stalled = len(norms) > 1 and not norms[-1] < (1 - STALL_EPS) * norms[-2]
        capped = len(calls) == cfg.n_iters
        solved = norms[-1] <= 1e-12 * np.linalg.norm(y)
        assert stalled or capped or solved

    def test_the_first_fit_never_stalls(self):
        # pure noise on four columns: the first fit lowers the residual by far
        # less than epsilon of ||y||, and the solver still makes a second
        # iteration, which stalls
        Z = make_rademacher(2000, 4, rng(60))
        y = rng(61).standard_normal(2000)
        calls = []
        cosamp(Z, y, CosampConfig(s=1, n_iters=10), on_iterate=recorder(calls))
        assert calls[0][3] > (1 - STALL_EPS) * np.linalg.norm(y)
        assert len(calls) == 2
