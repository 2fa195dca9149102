import math

import numpy as np
import pytest

from conftest import random_valid_method, stack_forms
from sspmsrk.methods import SpijkerForm, forward_euler, ssprk33, to_spijker
from sspmsrk.series import bushy_trees, elementary_weights, rooted_trees
from sspmsrk.theory import gen_second_order, stability_polynomials


def _children(trees):
    """Each tree's children as a sorted tuple of tree indices."""
    children = [()]
    for t, u, v in trees.products:
        for iu, iv in zip(u, v):
            children.append(tuple(sorted(children[iu] + (iv,))))
    return children


def _tall(children, n):
    """Index of the tree that is a path of n vertices."""
    t = 0
    for _ in range(n - 1):
        t = children.index((t,))
    return t


class TestRootedTrees:
    @pytest.mark.parametrize("N", [0, -1])
    def test_no_bushy_tree_rejected(self, N):
        with pytest.raises(ValueError, match="^N must be at least 1$"):
            bushy_trees(N)

    def test_counts_per_order(self):
        trees = rooted_trees(12)
        np.testing.assert_array_equal(
            np.bincount(trees.order)[1:],
            [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766],
        )
        children = _children(trees)
        assert len(set(children)) == len(children)  # each shape once
        for t, kids in enumerate(children):
            assert trees.order[t] == 1 + sum(trees.order[c] for c in kids)
            assert all(trees.order[c] < trees.order[t] for c in kids)

    def test_gamma_of_order_four_trees(self):
        trees = rooted_trees(4)
        children = _children(trees)
        assert trees.gamma[children.index((0, 0, 0))] == 4.0
        assert trees.gamma[_tall(children, 4)] == 24.0

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            rooted_trees(0)

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("table", [rooted_trees, bushy_trees])
    def test_recorded_bushy_trees_and_stems(self, table, N):
        trees = table(N)
        product = {t: (u, v) for group in trees.products for t, u, v in zip(*group)}
        assert len(trees.bushy) == N and len(trees.stems) == (N if table is bushy_trees else N - 1)
        for j, b in enumerate(trees.bushy, start=1):
            assert trees.order[b] == j and trees.gamma[b] == j
            # b_j = b_(j-1) o tau, and b_1 is tau itself
            assert product.get(b) == ((trees.bushy[j - 2], 0) if j > 1 else None)
        for j, stem in enumerate(trees.stems, start=1):
            assert trees.order[stem] == j + 1 and trees.gamma[stem] == (j + 1) * j
            assert product[stem] == (0, trees.bushy[j - 1])  # [b_j] = tau o b_j


class TestFlowSeries:
    """The exact flow has the B-series coefficient 1/gamma(t) on tree t."""

    def test_exponential(self):
        # on u' = u only the tall trees have nonzero elementary
        # differentials, so the flow exp(h) needs gamma = n! on them, and
        # the weights of a step are the Taylor coefficients of its
        # stability polynomials applied to exact back values
        trees = rooted_trees(8)
        children = _children(trees)
        tall = [_tall(children, n) for n in range(1, 9)]
        np.testing.assert_array_equal(trees.gamma[tall], [math.factorial(n) for n in range(1, 9)])
        for m in [ssprk33(), gen_second_order(3, 2), gen_second_order(2, 4)]:
            psi = stability_polynomials(to_spijker(m))
            taylor = [
                sum(p[d] * (1 - i) ** (n - d) / math.factorial(n - d)
                    for i, p in enumerate(psi, start=1) for d in range(min(n, len(p) - 1) + 1))
                for n in range(1, 9)
            ]
            phi = elementary_weights(to_spijker(m), rooted_trees(8))[0]
            np.testing.assert_allclose(phi[tall], taylor, rtol=0, atol=1e-13)

    def test_constant_rhs(self):
        # on u' = 1 only the single vertex contributes, and every
        # consistent method follows the flow u0 + h
        for m in [forward_euler(), ssprk33(), gen_second_order(4, 3)]:
            phi = elementary_weights(to_spijker(m), rooted_trees(1))[0]
            assert phi[0] == pytest.approx(1.0, abs=1e-14)

    def test_self_consistency(self):
        # U' = F(U) on the flow's series: gamma(t) = |t| * prod gamma(children)
        trees = rooted_trees(12)
        for t, kids in enumerate(_children(trees)):
            expected = trees.order[t] * math.prod(trees.gamma[c] for c in kids)
            assert trees.gamma[t] == expected


def _weights_by_trees(sp, N):
    """Elementary weights one tree at a time: the stage weights of a tree
    need only those of its children, on every row at once."""
    trees = rooted_trees(N)
    k = sp.k
    back = np.arange(1 - k, 1, dtype=float)[:, None] ** trees.order / trees.gamma
    W = np.zeros(sp.S.shape[:-2] + (k + sp.s, len(trees.order)))
    for t, kids in enumerate(_children(trees)):
        F = np.ones(W.shape[:-1])
        for c in kids:
            F = F * W[..., c]
        W[..., t] = sp.S @ back[:, t] + (sp.T @ F[..., None])[..., 0]
    return W[..., -1, :]


@pytest.mark.parametrize("N", range(1, 14))
def test_stacked_eval_matches_members(N):
    rng = np.random.default_rng(N)
    members = [[random_valid_method(rng, 3, 2) for _ in range(3)] for _ in range(2)]
    rows = [stack_forms(row) for row in members]
    stack = SpijkerForm(np.array([sp.ST for sp in rows]))
    phi = elementary_weights(stack, rooted_trees(N))[0]
    assert phi.shape == (2, 3, len(rooted_trees(N).order))
    np.testing.assert_allclose(phi, _weights_by_trees(stack, N), rtol=0, atol=1e-12)
    for index in np.ndindex(2, 3):
        member = to_spijker(members[index[0]][index[1]])
        np.testing.assert_allclose(phi[index], elementary_weights(member, rooted_trees(N))[0],
                                   rtol=0, atol=1e-13)
