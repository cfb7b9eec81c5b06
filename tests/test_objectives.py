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

    def test_unsorted_support_keeps_each_coefficient_on_its_coordinate(self):
        q = SparseQuadric(10, np.array([7, 2]), np.array([1.0, 100.0]))
        e2, e7 = np.eye(10)[2], np.eye(10)[7]
        assert (q.eval(e2), q.eval(e7)) == (50.0, 0.5)
        g = q.grad(e2 + e7).to_dense()
        assert (g[2], g[7]) == (100.0, 1.0)

    def test_rejects_nonpositive_coeffs(self):
        with pytest.raises(ConfigurationError):
            SparseQuadric(10, np.array([1]), np.array([0.0]))

    @pytest.mark.parametrize("index", [-1, 10])
    def test_rejects_support_outside_the_dimension(self, index):
        # a negative index would wrap around to the last coordinates
        with pytest.raises(ConfigurationError):
            SparseQuadric(10, np.array([3, index]), np.ones(2))

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
    d = data.draw(st.integers(1, 400), label="d")
    s = data.draw(st.one_of(st.just(d), st.integers(1, d)), label="s")
    n = data.draw(st.integers(1, d), label="block size")
    circulant = data.draw(st.booleans(), label="circulant")
    m = data.draw(st.integers(1, min(n if circulant else 2 * n, 64)), label="m")
    delta = data.draw(st.sampled_from([1e-2, 0.5, 1.0]), label="delta")
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    idx = gen.permutation(d)[:n]  # unsorted block coordinates
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    kind = data.draw(st.sampled_from(["normal", "ties", "sparse"]), label="x")
    if kind == "ties":
        # tied and zero magnitudes, some a delta away from zero or from each other
        x = gen.choice([-2.0, -1.0, -delta, 0.0, delta, 0.5, 1.0], size=d)
    elif kind == "sparse":
        # mostly zero, often with fewer than s nonzeros: eval selects from the nonzeros alone
        x = np.zeros(d)
        nonzero = gen.choice(d, size=data.draw(st.integers(0, d // 10), label="nonzeros"), replace=False)
        x[nonzero] = gen.standard_normal(nonzero.size)
    else:
        x = gen.standard_normal(d)
    q = SparseQuadric(d, gen.choice(d, size=s, replace=False), gen.uniform(0.5, 2.0, size=s))
    for f in (q, MaxSSumSquared(d, s)):
        assert_eval_block_equals_eval(f, x, idx, Z, delta)


@pytest.mark.parametrize("circulant", [False, True], ids=["R", "RC"])
def test_eval_block_equals_eval_bit_for_bit_at_zero(circulant):
    # x = 0 and a 100-column block: fewer than s magnitudes are nonzero, so
    # the top s of every probe are its 100 nonzeros padded with zeros
    d, s, n, m = 20000, 200, 100, 100
    gen = np.random.default_rng(8)
    Z = make_partial_circulant(m, n, gen) if circulant else make_rademacher(m, n, gen)
    assert_eval_block_equals_eval(MaxSSumSquared(d, s), np.zeros(d), gen.permutation(d)[:n], Z, 1e-2)


def assert_eval_block_equals_eval(f, x, idx, Z, delta):
    """Each batched probe value is eval at x + delta * lift(Z.row(i)), exactly."""
    got = f.eval_block(x, idx, Z, delta)
    assert got.shape == (Z.m,)
    for i in range(Z.m):
        lifted = np.zeros(x.size)
        lifted[idx] = Z.row(i)
        assert got[i] == f.eval(x + delta * lifted)


def test_max_s_sum_eval_block_propagates_nan():
    f = MaxSSumSquared(6, 2)
    Z = make_rademacher(3, 2, np.random.default_rng(0))
    x = np.array([5.0, np.nan, 1.0, 0.0, 4.0, 2.0])
    assert np.isnan(f.eval(x))
    assert np.all(np.isnan(f.eval_block(x, np.array([4, 0]), Z, 0.1)))
    # on a mostly zero x too, where eval selects from the nonzeros alone
    f = MaxSSumSquared(2000, 5)
    x = np.zeros(2000)
    x[[3, 700, 1500]] = [1.0, np.nan, -2.0]
    assert np.isnan(f.eval(x))
    assert np.all(np.isnan(f.eval_block(x, np.array([10, 3, 11]), make_rademacher(4, 3, np.random.default_rng(1)), 0.1)))


@pytest.mark.parametrize("d", [7, 300, 20000])
def test_max_s_sum_eval_equals_full_sort_bit_for_bit(d):
    # the top s of |x| from one full sort, at every density: all zero, fewer
    # than s nonzeros, sparse, half dense and dense
    s = max(1, d // 100)
    f = MaxSSumSquared(d, s)
    gen = rng(13)
    for nonzeros in sorted({0, 1, s - 1, s, s + 1, d // 100, d // 9, d // 7, d // 2, d}):
        for scale in (1e-150, 1.0, 1e150):
            x = np.zeros(d)
            x[gen.choice(d, size=nonzeros, replace=False)] = scale * gen.standard_normal(nonzeros)
            x[np.flatnonzero(x == 0)[:3]] = -0.0  # a zero too
            top = np.sort(np.abs(x))[None, d - s :]
            assert f.eval(x) == float(f._values(top)[0])


def test_objective_registry():
    q = make_objective("sparse-quadric", 50, 5, rng(8))
    assert isinstance(q, SparseQuadric) and q.s == 5
    f = make_objective("max-s-sum-squared", 50, 5, rng(9))
    assert isinstance(f, MaxSSumSquared)
    with pytest.raises(ConfigurationError):
        make_objective("rosenbrock", 10, 2, rng())
