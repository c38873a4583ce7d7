"""Metamorphic relations of the model, checked with hypothesis.

A relation maps a graph to another whose answer follows from the first
one's, so it needs no second implementation, and it holds on clamped
answers too. From the model

    rating_j = mean_{i rated j} clip(w_ij - alpha * bias_i)
    bias_i   = mean_{j rated by i} (w_ij - rating_j)

* reflection: w -> 1 - w gives rating -> 1 - rating and bias -> -bias,
  clamped or not, since the clip into [0, 1] is symmetric about 1/2;
* shift: w -> w + c gives rating -> rating + c and the same bias, if no
  clip fires in either solve.

A solve stops once its residual's L1 norm is below epsilon, and the bias
map is an alpha-contraction in the max norm, so each answer lies within
epsilon / (1 - alpha) of its fixed point, and the two answers of a
relation within 2 epsilon / (1 - alpha) of it.
"""

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from truerating import RatingGraph, SolverConfig, solve

EPSILON = 1e-12
alphas = st.sampled_from([0.5, 0.9, 0.99])


@st.composite
def edges(draw, low=0.0, high=1.0):
    """A random bipartite graph of up to 40 users and 30 items, no node
    isolated: its user and item ids, its edges and their weights, drawn
    from [low, high], or all 0 or 1 (extreme raters, whose debiased
    weights clamp often)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nu, ni = draw(st.integers(1, 40)), draw(st.integers(1, 30))
    mask = rng.random((nu, ni)) < draw(st.floats(0.05, 1.0))
    mask[np.arange(nu), rng.integers(ni, size=nu)] = True
    mask[rng.integers(nu, size=ni), np.arange(ni)] = True
    u, v = np.nonzero(mask)
    if draw(st.booleans()):
        w = rng.uniform(low, high, u.size)
    else:
        w = rng.choice([low, high], u.size)
    return [f"u{i}" for i in range(nu)], [f"m{j}" for j in range(ni)], u, v, w


def solved(users, items, u, v, w, alpha):
    result = solve(RatingGraph(users, items, u, v, w),
                   SolverConfig(alpha=alpha, epsilon=EPSILON))
    assert result.converged
    return result


def assert_close(got, want, alpha):
    assert np.abs(got - want).max() <= 2 * EPSILON / (1 - alpha)


metamorphic = settings(max_examples=200, deadline=None)


class TestMetamorphic:
    @metamorphic
    @given(graph=edges(), alpha=alphas)
    def test_reflection(self, graph, alpha):
        *ids, w = graph
        base = solved(*ids, w, alpha)
        mirror = solved(*ids, 1 - w, alpha)
        assert_close(mirror.rating, 1 - base.rating, alpha)
        assert_close(mirror.bias, -base.bias, alpha)

    def test_reflection_of_a_clamped_answer(self, clamping_graph):
        g = clamping_graph
        ids = (g.user_ids, g.item_ids, g.edge_user, g.edge_item)
        base = solved(*ids, g.edge_weight, 0.99)
        mirror = solved(*ids, 1 - g.edge_weight, 0.99)
        assert base.clamped and mirror.clamped
        assert_close(mirror.rating, 1 - base.rating, 0.99)
        assert_close(mirror.bias, -base.bias, 0.99)

    @metamorphic
    @given(graph=edges(0.4, 0.6), shift=st.floats(-0.4, 0.4), alpha=alphas)
    def test_shift(self, graph, shift, alpha):
        *ids, w = graph
        base = solved(*ids, w, alpha)
        moved = solved(*ids, w + shift, alpha)
        assume(not base.clamped and not moved.clamped)
        assert_close(moved.rating, base.rating + shift, alpha)
        assert_close(moved.bias, base.bias, alpha)
