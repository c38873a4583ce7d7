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

Two relations of the numbering hold to the byte, through the command
line, since ids are numbered in ascending order, as Python sorts them:

* line order: any permutation of a rating log's lines writes the same
  ``bias.csv``, ``ratings.csv`` and ``trace.json`` (under the strict
  duplicate policy; ``keep_first`` lets the order pick the kept line);
* relabelling: renaming ids by a map that keeps their order writes the
  same values, each under its id's new name.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from truerating import RatingGraph, SolverConfig, solve
from truerating.cli import main

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


OUTPUTS = ("bias.csv", "ratings.csv", "trace.json")

# Ids of each numbering path: decimals by value ("10" sorts before "9"),
# decimals too sparse for that and so ranked by `np.unique`, ids of one
# word, and ids wider than a word and outside ASCII.
ID_STYLES = {
    "decimal": str,
    "sparse decimal": lambda i: str(1000 * i + 7),
    "word": lambda i: f"u{i}",
    "wide": lambda i: f"\u00fcber-id-{i}",
}


def solve_log(users, items, u, v, w, order, alpha=0.99):
    """The CLI's exit code, results, and the bytes of each of `OUTPUTS`,
    for the edges written in `order` as a ``user::item::weight`` log, solved
    on the 0:1 scale under the strict duplicate policy."""
    with tempfile.TemporaryDirectory() as tmp:
        log, out = Path(tmp) / "r.dat", Path(tmp) / "out"
        weights = w.tolist()
        log.write_text("".join(
            f"{users[u[k]]}::{items[v[k]]}::{weights[k]!r}\n" for k in order
        ), encoding="utf-8")
        code = main(["solve", "--ratings", str(log), "--scale", "0:1",
                     "--alpha", str(alpha), "--duplicates", "strict",
                     "--out", str(out)])
        results = json.loads((out / "manifest.json").read_text("utf-8"))["results"]
        return code, results, {name: (out / name).read_bytes() for name in OUTPUTS}


def rows(data: bytes) -> list[list[str]]:
    """The ``id,value`` rows of a written score CSV, header dropped."""
    return [line.split(",") for line in data.decode().splitlines()[1:]]


cli_relation = settings(max_examples=40, deadline=None)


class TestNumbering:
    @cli_relation
    @given(graph=edges(), style=st.sampled_from(sorted(ID_STYLES)),
           seed=st.integers(0, 2**32 - 1))
    def test_line_order(self, graph, style, seed):
        users, items, u, v, w = graph
        users, items = ([ID_STYLES[style](i) for i in range(len(ids))]
                        for ids in (users, items))
        first = solve_log(users, items, u, v, w, range(u.size))
        shuffled = solve_log(users, items, u, v, w,
                             np.random.default_rng(seed).permutation(u.size))
        assert first == shuffled
        code, _, outputs = first
        assert code == 0
        # Rows come in ascending id order, as Python sorts the ids.
        for scores in (outputs["bias.csv"], outputs["ratings.csv"]):
            ids = [row[0] for row in rows(scores)]
            assert ids == sorted(ids)

    def test_line_order_of_a_clamped_answer(self, clamping_graph):
        g = clamping_graph
        ids = (g.user_ids, g.item_ids, g.edge_user, g.edge_item, g.edge_weight)
        first = solve_log(*ids, range(g.num_edges))
        reversed_ = solve_log(*ids, range(g.num_edges)[::-1])
        assert first[1]["clamped"]
        assert first == reversed_

    @cli_relation
    @given(graph=edges(), data=st.data())
    def test_relabelling(self, graph, data):
        # Decimal ids, numbered by value, renamed by a map that keeps their
        # order: each id prefixed, ranked by `np.unique`, or mapped onto
        # sorted random ids, some wider than a word.
        users, items, u, v, w = graph
        users, items = ([str(i) for i in range(len(ids))] for ids in (users, items))
        renamed = []
        for ids in (users, items):
            if data.draw(st.booleans()):
                names = [f"id{i}" for i in sorted(ids)]
            else:
                names = sorted(data.draw(st.lists(
                    st.text("az09\u00fc-", min_size=1, max_size=12),
                    min_size=len(ids), max_size=len(ids), unique=True)))
            renamed.append(dict(zip(sorted(ids), names)))
        base = solve_log(users, items, u, v, w, range(u.size))
        moved = solve_log([renamed[0][i] for i in users],
                          [renamed[1][j] for j in items], u, v, w, range(u.size))
        assert moved[:2] == base[:2]
        assert moved[2]["trace.json"] == base[2]["trace.json"]
        for name, side in (("bias.csv", 0), ("ratings.csv", 1)):
            assert rows(moved[2][name]) == [
                [renamed[side][key], value] for key, value in rows(base[2][name])
            ]

    @given(graph=edges(), seed=st.integers(0, 2**32 - 1))
    def test_from_edges_order(self, graph, seed):
        # `from_edges` numbers ids as the file readers do: ascending, so
        # the triples' order changes nothing.
        users, items, u, v, w = graph
        users = [str(i) for i in range(len(users))]
        triples = [(users[a], items[b], c) for a, b, c in zip(u, v, w.tolist())]
        order = np.random.default_rng(seed).permutation(len(triples))
        first = RatingGraph.from_edges(triples)
        again = RatingGraph.from_edges([triples[k] for k in order])
        assert first.user_ids == tuple(sorted(users))
        assert first.item_ids == tuple(sorted(items))
        for name in RatingGraph.__slots__:
            a, b = getattr(first, name), getattr(again, name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
