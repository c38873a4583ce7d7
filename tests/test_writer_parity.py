"""The blocked numpy CSV writers against the per-row reference writers.

For any input, `write_scores_csv` and `write_ratings_csv` must write
exactly the bytes the reference's ``f"{v:.9f}"`` rows write, whatever the
block size.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import reference_ingest as reference
from truerating import RatingGraph, write_ratings_csv, write_scores_csv
from truerating import ingest

# Past 2**52 / 1e9 a float64 product v * 1e9 no longer holds every
# integer.
LIMIT = 2**52 / 1e9
SPECIAL = [
    0.0, -0.0, 1e-10, -1e-10, 5e-10, -5e-10, 1.5e-9, 2.5e-9, 0.5, 1.0,
    math.nan, -math.nan, math.inf, -math.inf, LIMIT, -LIMIT,
    math.nextafter(LIMIT, 0.0), math.nextafter(LIMIT, math.inf), 1e7,
    -2.5e8, 1e300, 5e-324,
]
# k / 2**10 with k odd puts v * 1e9 exactly on a half-integer, a tie that
# rounds to even; other m give other dyadic values.
dyadic = st.builds(lambda k, m: k / 2**m,
                   st.integers(-2**24, 2**24), st.integers(0, 40))
values = st.one_of(
    st.sampled_from(SPECIAL),
    dyadic,
    st.floats(-1.0, 1.0),
    st.floats(-10.0, 10.0),
    st.floats(-2 * LIMIT, 2 * LIMIT),
    st.floats(),
)
weights = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, 5e-10, 0.5, 1.0]),
    dyadic.filter(lambda w: 0.0 <= w <= 1.0),
    st.floats(0.0, 1.0),
)
# Mixed ASCII and multi-byte ids, all of them ids the writers accept: no
# ",", no line break, not empty and no whitespace at either end.
ids = st.text(st.characters(codec="utf-8", exclude_characters=",\r\n"),
              min_size=1, max_size=4).filter(lambda i: i == i.strip())
block_rows = st.sampled_from([1, 3, 8192])

parity = settings(max_examples=300, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def graphs(draw):
    """A graph with multi-byte ids and weights from `weights`; sometimes
    empty."""
    user_ids = draw(st.lists(ids, max_size=6, unique=True))
    item_ids = draw(st.lists(ids, min_size=min(1, len(user_ids)),
                             max_size=6 if user_ids else 0, unique=True))
    cells = len(user_ids) * len(item_ids)
    mask = np.array(draw(st.lists(st.booleans(), min_size=cells,
                                  max_size=cells)), dtype=bool)
    mask = mask.reshape(len(user_ids), len(item_ids))
    if cells:
        mask[~mask.any(axis=1), 0] = True
        mask[0, ~mask.any(axis=0)] = True
    u, v = np.nonzero(mask)
    w = draw(st.lists(weights, min_size=u.size, max_size=u.size))
    return RatingGraph(user_ids, item_ids, u, v, np.array(w, np.float64))


class TestMatchesReference:
    @parity
    @given(rows=st.lists(st.tuples(ids, values), max_size=40),
           block=block_rows)
    def test_scores(self, tmp_path_factory, rows, block):
        keys = [key for key, _ in rows]
        scores = np.array([value for _, value in rows], np.float64)
        folder = tmp_path_factory.mktemp("scores")
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            write_scores_csv(folder / "new.csv", ("id", "value"), keys, scores)
        reference.write_scores_csv(folder / "ref.csv", ("id", "value"), keys,
                                   scores)
        assert (folder / "new.csv").read_bytes() == (
            folder / "ref.csv").read_bytes()

    @parity
    @given(graph=graphs(), block=block_rows)
    def test_ratings(self, tmp_path_factory, graph, block):
        folder = tmp_path_factory.mktemp("ratings")
        with mock.patch.object(ingest, "_BLOCK_ROWS", block):
            write_ratings_csv(graph, folder / "new.csv")
        reference.write_ratings_csv(graph, folder / "ref.csv")
        assert (folder / "new.csv").read_bytes() == (
            folder / "ref.csv").read_bytes()

    def test_every_tie_rounds_to_even(self, tmp_path):
        # Every odd k / 1024 is a tie at the ninth decimal.
        scores = np.arange(-2047, 2048, 2) / 1024
        keys = [str(k) for k in range(scores.size)]
        write_scores_csv(tmp_path / "new.csv", ("id", "v"), keys, scores)
        reference.write_scores_csv(tmp_path / "ref.csv", ("id", "v"), keys,
                                   scores)
        assert (tmp_path / "new.csv").read_bytes() == (
            tmp_path / "ref.csv").read_bytes()

    def test_values_must_match_ids(self, tmp_path):
        path = tmp_path / "scores.csv"
        with pytest.raises(ValueError, match="for 2 ids"):
            write_scores_csv(path, ("id", "v"), ["a", "b"], [0.5])
        assert not path.exists()


# numpy lays out a block with one whole digit only while every |v| rounds
# below 9 at the ninth decimal; from 9.9999999995 on, |v| rounds to 10.
WHOLE_DIGIT_EDGES = [
    *(8.9999999995 + k * 1e-10 for k in range(11)),
    math.nextafter(8.9999999995, 0.0), math.nextafter(9.0000000005, 10.0),
    math.nextafter(9.0, 0.0), 9.9999999995,
    math.nextafter(9.9999999995, 0.0), math.nextafter(9.9999999995, 10.0),
    9.9999999996, 10.0,
]
BOUNDARIES = {
    "whole-digit-edges": [*WHOLE_DIGIT_EDGES, *(-v for v in WHOLE_DIGIT_EDGES)],
    # Odd k / 2**10 puts v * 1e9 on a half-integer: ties across (-9, 9).
    "dyadic-ties": [k / 2**10 for k in range(1 - 9 * 2**10, 9 * 2**10, 142)],
    "zeros": [0.0, -0.0, 5e-10, -5e-10, 0.0, -0.0],
}


def assert_scores_match(folder, scores, block):
    keys = [str(k) for k in range(len(scores))]
    scores = np.array(scores, np.float64)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        write_scores_csv(folder / "new.csv", ("id", "v"), keys, scores)
    reference.write_scores_csv(folder / "ref.csv", ("id", "v"), keys, scores)
    assert (folder / "new.csv").read_bytes() == (
        folder / "ref.csv").read_bytes()


class TestBoundaries:
    @pytest.mark.parametrize("block", [1, 3, 8192])
    @pytest.mark.parametrize("name", sorted(BOUNDARIES))
    def test_boundary_values(self, tmp_path, name, block):
        assert_scores_match(tmp_path, BOUNDARIES[name], block)

    @pytest.mark.parametrize("block", [1, 3, 8192])
    @pytest.mark.parametrize("odd", [
        math.nan, 1e300, -1e300, 9.0, -10.0, math.nextafter(9.0, 0.0),
        -math.nextafter(9.0, 0.0), 8.9999999995,
    ])
    def test_one_odd_value_among_small_ones(self, tmp_path, odd, block):
        scores = np.random.default_rng(0).uniform(-1.0, 1.0, 20)
        scores[7] = odd
        assert_scores_match(tmp_path, scores.tolist(), block)


class TestMemory:
    def test_scores_peak_is_bounded(self, tmp_path):
        # 200,000 rows, what path-100k writes in its two files. Peak traced
        # allocation measured on CPython 3.11 / numpy 2.4: the per-row
        # writer 6.1 MiB (a Python float and a formatted row per value),
        # the blocked writer 1.0 MiB (one 8192-row block's temporaries).
        # 2 MiB sits between the two.
        rng = np.random.default_rng(0)
        n = 200_000
        keys = [f"i{k}" for k in rng.permutation(n)]
        scores = rng.uniform(-1.0, 1.0, n)
        tracemalloc.start()
        try:
            write_scores_csv(tmp_path / "scores.csv", ("id", "v"), keys,
                             scores)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20, f"peak {peak} B"
