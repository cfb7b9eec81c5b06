import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zobcd.core import ConfigurationError, RngStreams
from zobcd.objectives import MaxSSumSquared, SparseQuadric, make_objective
from zobcd.sampling import make_partial_circulant, make_rademacher


def rng(seed=0):
    return RngStreams(seed).substream("objective")


def central_diff(f, x, h=1e-6):
    g = np.zeros(x.size)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


class TestSparseQuadric:
    def test_eval_equals_square_then_dot_bit_for_bit(self):
        # eval squares a copy in place and takes one dot product: the value
        # of coeffs @ x[support] ** 2, which the fixed-seed traces pin
        gen = rng(12)
        for d, s in [(1, 1), (9, 4), (300, 37), (20000, 200)]:
            q = SparseQuadric(d, gen.choice(d, size=s, replace=False), gen.uniform(0.1, 10.0, size=s))
            for scale in (1e-150, 1e-3, 1.0, 1e6, 1e150):
                x = scale * gen.standard_normal(d)
                x_before = x.copy()
                assert q.eval(x) == 0.5 * float(q.coeffs @ x[q.support] ** 2)
                assert np.array_equal(x, x_before)

    def test_minimum_at_origin(self):
        q = SparseQuadric.random(20, 5, rng())
        assert q.eval(np.zeros(20)) == 0.0
        assert not q.grad(np.zeros(20)).values.any()

    def test_indicator_value(self):
        q = SparseQuadric.random(20, 5, rng(1))
        x = np.zeros(20)
        x[q.support] = 1.0
        assert q.eval(x) == 2.5

    def test_grad_matches_finite_differences(self):
        q = SparseQuadric(15, rng(2).choice(15, size=4, replace=False), np.full(4, 2.0))
        x = rng(3).standard_normal(15)
        np.testing.assert_allclose(q.grad(x).to_dense(), central_diff(q.eval, x), atol=1e-6)

    def test_l_max(self):
        q = SparseQuadric(10, np.array([1, 5]), np.array([2.0, 7.0]))
        assert q.l_max == 7.0

    def test_rejects_nonpositive_coeffs(self):
        with pytest.raises(ConfigurationError):
            SparseQuadric(10, np.array([1]), np.array([0.0]))

    @pytest.mark.parametrize("coeff", [np.nan, np.inf])
    def test_rejects_non_finite_coeffs(self, coeff):
        with pytest.raises(ConfigurationError):
            SparseQuadric(10, np.array([1]), np.array([coeff]))


class TestMaxSSumSquared:
    def test_reduces_to_half_norm_when_s_equals_d(self):
        f = MaxSSumSquared(6, 6)
        x = rng(5).standard_normal(6)
        assert f.eval(x) == pytest.approx(0.5 * float(x @ x))

    def test_hand_example(self):
        f = MaxSSumSquared(3, 1)
        x = np.array([3.0, 1.0, -4.0])
        assert f.eval(x) == 8.0
        g = f.grad(x)
        assert np.array_equal(g.to_dense(), [0.0, 0.0, -4.0])

    def test_permutation_invariance(self):
        f = MaxSSumSquared(8, 3)
        x = rng(6).standard_normal(8)
        shuffled = x[rng(7).permutation(8)]
        assert f.eval(x) == pytest.approx(f.eval(shuffled))

    def test_grad_support_moves_with_x(self):
        f = MaxSSumSquared(5, 2)
        g1 = f.grad(np.array([9.0, 1.0, 1.0, 8.0, 0.0]))
        g2 = f.grad(np.array([0.0, 7.0, 6.0, 1.0, 1.0]))
        assert np.array_equal(g1.indices, [0, 3])
        assert np.array_equal(g2.indices, [1, 2])

    def test_grad_matches_finite_differences_off_ties(self):
        f = MaxSSumSquared(10, 3)
        x = np.linspace(-2.0, 2.3, 10)  # distinct magnitudes
        np.testing.assert_allclose(f.grad(x).to_dense(), central_diff(f.eval, x), atol=1e-6)

    def test_ties_take_lowest_index(self):
        f = MaxSSumSquared(4, 1)
        g = f.grad(np.array([2.0, -2.0, 1.0, 0.0]))
        assert np.array_equal(g.indices, [0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_eval_block_equals_eval_bit_for_bit(data):
    # each batched probe value is eval at x + delta * lift(Z.row(i)), exactly
    d = data.draw(st.integers(1, 400), label="d")
    s = data.draw(st.one_of(st.just(d), st.integers(1, d)), label="s")
    n = data.draw(st.integers(1, d), label="block size")
    circulant = data.draw(st.booleans(), label="circulant")
    m = data.draw(st.integers(1, min(n if circulant else 2 * n, 64)), label="m")
    delta = data.draw(st.sampled_from([1e-2, 0.5, 1.0]), label="delta")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    idx = gen.permutation(d)[:n]  # unsorted block coordinates
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    if data.draw(st.booleans(), label="ties"):
        # tied and zero magnitudes, some a delta away from zero or from each other
        x = gen.choice([-2.0, -1.0, -delta, 0.0, delta, 0.5, 1.0], size=d)
    else:
        x = gen.standard_normal(d)
    q = SparseQuadric(d, gen.choice(d, size=s, replace=False), gen.uniform(0.5, 2.0, size=s))
    for f in (q, MaxSSumSquared(d, s)):
        got = f.eval_block(x, idx, Z, delta)
        assert got.shape == (m,)
        for i in range(m):
            lifted = np.zeros(d)
            lifted[idx] = Z.row(i)
            assert got[i] == f.eval(x + delta * lifted)


def test_max_s_sum_eval_block_propagates_nan():
    f = MaxSSumSquared(6, 2)
    Z = make_rademacher(3, 2, np.random.default_rng(0))
    x = np.array([5.0, np.nan, 1.0, 0.0, 4.0, 2.0])
    assert np.isnan(f.eval(x))
    assert np.all(np.isnan(f.eval_block(x, np.array([4, 0]), Z, 0.1)))


def test_objective_registry():
    q = make_objective("sparse-quadric", 50, 5, rng(8))
    assert isinstance(q, SparseQuadric) and q.s == 5
    f = make_objective("max-s-sum-squared", 50, 5, rng(9))
    assert isinstance(f, MaxSSumSquared)
    with pytest.raises(ConfigurationError):
        make_objective("rosenbrock", 10, 2, rng())
