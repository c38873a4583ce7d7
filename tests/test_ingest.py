import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from truerating import (
    MOVIELENS_FORMAT,
    DelimitedFormat,
    IdTable,
    IngestError,
    RatingGraph,
    RatingScale,
    ingest_ground_truth,
    ingest_ratings,
    write_ratings_csv,
    write_scores_csv,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


#: Ids that would not read back as themselves from a CSV field, with the
#: error that names them; the writers refuse them before opening the file.
UNWRITABLE_IDS = [
    pytest.param("Toy Story, The", "'Toy Story, The' contains ','", id="comma"),
    pytest.param("m\n1", r"'m\\n1' contains a line break", id="newline"),
    pytest.param("m\r1", r"'m\\r1' contains a line break", id="return"),
    pytest.param(" a", "' a' has whitespace at an end", id="leading-space"),
    pytest.param("b ", "'b ' has whitespace at an end", id="trailing-space"),
    pytest.param("", "'' is empty", id="empty"),
]


class TestIngestRatings:
    def test_movielens_star_scale(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5\nu1::m2::1\nu2::m1::3\n")
        g = ingest_ratings(path, scale=RatingScale(1, 5))
        weights = {(u, i): w for u, i, w in g.edges()}
        assert weights == {("u1", "m1"): 1.0, ("u1", "m2"): 0.0, ("u2", "m1"): 0.5}

    def test_timestamp_field_ignored(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5::978300760\n")
        g = ingest_ratings(path, scale=RatingScale(1, 5))
        assert list(g.edges()) == [("u1", "m1", 1.0)]

    def test_empty_file(self, tmp_path):
        g = ingest_ratings(write(tmp_path / "r.dat", ""))
        assert g.num_users == 0 and g.num_items == 0

    def test_duplicate_strict_names_line(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5\nu2::m1::3\nu1::m1::4\n")
        with pytest.raises(IngestError, match=r"r\.dat:3: duplicate"):
            ingest_ratings(path, scale=RatingScale(1, 5))

    def test_duplicate_keep_first(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5\nu1::m1::1\n")
        g = ingest_ratings(path, scale=RatingScale(1, 5), duplicate_policy="keep_first")
        assert list(g.edges()) == [("u1", "m1", 1.0)]

    def test_unknown_duplicate_policy(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5\n")
        with pytest.raises(ValueError, match="unknown duplicate policy 'first'"):
            ingest_ratings(path, duplicate_policy="first")

    def test_malformed_record_names_line(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::5\nu2::m2\n")
        with pytest.raises(IngestError, match=r"r\.dat:2: expected at least 3"):
            ingest_ratings(path, scale=RatingScale(1, 5))

    def test_rating_outside_scale(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::9\n")
        with pytest.raises(IngestError, match=r"r\.dat:1:.*outside scale"):
            ingest_ratings(path, scale=RatingScale(1, 5))

    def test_non_numeric_rating(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::five\n")
        with pytest.raises(IngestError, match="bad rating value"):
            ingest_ratings(path, scale=RatingScale(1, 5))

    def test_unscaled_input_must_be_normalized(self, tmp_path):
        path = write(tmp_path / "r.dat", "u1::m1::3\n")
        with pytest.raises(IngestError, match=r"outside \[0, 1\]"):
            ingest_ratings(path)  # no scale given, 3 is not a weight

    @pytest.mark.parametrize("before", [1, 150_000])
    def test_invalid_utf8_names_line(self, tmp_path, before):
        # 150,000 lines put the bad byte past the first MiB that the check
        # decodes.
        path = tmp_path / "r.dat"
        path.write_bytes(b"u1::m1::5\r\n" * before + b"u2::m\xff1::3\r\n")
        with pytest.raises(IngestError, match=rf"r\.dat:{before + 1}: not UTF-8"):
            ingest_ratings(path, scale=RatingScale(1, 5))

    def test_custom_delimiter(self, tmp_path):
        path = write(tmp_path / "r.tsv", "u1\tm1\t4\n")
        g = ingest_ratings(path, fmt=DelimitedFormat("\t"), scale=RatingScale(1, 5))
        assert list(g.edges()) == [("u1", "m1", 0.75)]

    def test_error_carries_path_and_line(self, tmp_path):
        path = write(tmp_path / "weird.dat", "u1::m1::bad\n")
        with pytest.raises(IngestError) as info:
            ingest_ratings(path, scale=RatingScale(1, 5))
        assert info.value.path.endswith("weird.dat")
        assert info.value.line == 1


class TestCanonicalCsv:
    def test_round_trip(self, tmp_path):
        g = RatingGraph.from_edges(
            [("u1", "m1", 1.0), ("u1", "m2", 0.25), ("u2", "m1", 0.5)]
        )
        path = tmp_path / "edges.csv"
        write_ratings_csv(g, path)
        again = ingest_ratings(path)
        assert set(g.edges()) == set(again.edges())

    def test_header_and_digits(self, tmp_path):
        g = RatingGraph.from_edges([("u1", "m1", 1 / 3)])
        path = tmp_path / "edges.csv"
        write_ratings_csv(g, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "user_id,item_id,weight"
        assert lines[1] == "u1,m1,0.333333333"

    def test_header_sniff_skips_scale(self, tmp_path):
        # Canonical CSV is already normalized; a stale scale flag must not
        # reinterpret the weights.
        path = write(tmp_path / "e.csv", "user_id,item_id,weight\nu1,m1,0.5\n")
        g = ingest_ratings(path, scale=RatingScale(1, 5))
        assert list(g.edges()) == [("u1", "m1", 0.5)]

    def test_quoted_ids_round_trip(self, tmp_path):
        g = RatingGraph.from_edges([('x"y', '"q"', 0.5), ("u2", '"q"', 0.25)])
        path = tmp_path / "edges.csv"
        write_ratings_csv(g, path)
        assert path.read_text().splitlines()[1] == 'x"y,"q",0.500000000'
        assert list(ingest_ratings(path).edges()) == list(g.edges())

    @pytest.mark.parametrize("item, message", UNWRITABLE_IDS)
    def test_comma_in_id_rejected_before_open(self, tmp_path, item, message):
        g = RatingGraph.from_edges(
            [("u1", "Heat", 0.5), ("u1", item, 1.0), ("u2", "a,b", 0.0)]
        )
        path = tmp_path / "edges.csv"
        with pytest.raises(ValueError, match=message):
            write_ratings_csv(g, path)
        assert not path.exists()

    def test_write_is_deterministic(self, tmp_path):
        g = RatingGraph.from_edges([("u2", "m1", 0.5), ("u1", "m2", 0.25), ("u1", "m1", 1.0)])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ratings_csv(g, a)
        write_ratings_csv(g, b)
        assert a.read_bytes() == b.read_bytes()


class TestGroundTruth:
    def test_percent_scale(self, tmp_path):
        path = write(tmp_path / "t.csv", "m1,80\n")
        truth = ingest_ground_truth(path, scale=RatingScale(0, 100))
        assert truth["m1"] == pytest.approx(0.8)

    def test_header_skipped(self, tmp_path):
        path = write(tmp_path / "t.csv", "item_id,true_rating\nm1,0.4\n")
        truth = ingest_ground_truth(path)
        assert len(truth) == 1 and truth["m1"] == 0.4

    def test_header_after_blank_lines(self, tmp_path):
        # The header is the first non-blank line, as in a rating file.
        path = write(tmp_path / "t.csv", "\n  \nitem_id,true_rating\nm1,0.4\n")
        assert ingest_ground_truth(path) == {"m1": 0.4}

    def test_bad_value_on_second_non_blank_line(self, tmp_path):
        path = write(tmp_path / "t.csv", "\nitem_id,true_rating\nm1,oops\n")
        with pytest.raises(IngestError, match=r"t\.csv:3: bad value 'oops'"):
            ingest_ground_truth(path)

    def test_empty_file(self, tmp_path):
        assert len(ingest_ground_truth(write(tmp_path / "t.csv", ""))) == 0

    def test_invalid_utf8_names_line(self, tmp_path):
        # A lead byte followed by "," is cut short.
        path = tmp_path / "t.csv"
        path.write_bytes(b"item_id,true_rating\nm1,0.4\nm\xc3,0.5\n")
        with pytest.raises(IngestError, match=r"t\.csv:3: not UTF-8: invalid cont"):
            ingest_ground_truth(path)

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path / "t.csv", "m1,0.4\nm1,0.5\n")
        with pytest.raises(IngestError, match="duplicate id"):
            ingest_ground_truth(path)

    def test_bad_value_mid_file(self, tmp_path):
        path = write(tmp_path / "t.csv", "m1,0.4\nm2,oops\n")
        with pytest.raises(IngestError, match=r"t\.csv:2"):
            ingest_ground_truth(path)

    def test_table_of_any_mapping_keeps_its_ids(self):
        ids = [" padded ", "\u00fc\u3000", "nul\x00", "\ud800", "x" * 20]
        given = {key: float(k) for k, key in enumerate(ids)}
        table = IdTable.of(given)
        assert list(table.items()) == list(given.items())
        assert IdTable.of(table) is table

    def test_unmatched_items_retained_and_flagged(self, tmp_path):
        path = write(tmp_path / "t.csv", "m1,0.4\nghost,0.9\n")
        truth = ingest_ground_truth(path)
        assert "ghost" in truth


class TestScoresCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "bias.csv"
        write_scores_csv(path, ("user_id", "bias"), ["u1", "u2"], [0.5, -0.5])
        assert path.read_text() == "user_id,bias\nu1,0.500000000\nu2,-0.500000000\n"

    def test_round_trips_through_truth_reader(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(path, ("item_id", "true_rating"), ["m1"], [0.123456789])
        truth = ingest_ground_truth(path)
        assert truth["m1"] == pytest.approx(0.123456789)

    def test_quoted_ids_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        ids = ['x"y', '"q"', 'say ""hi""']
        write_scores_csv(path, ("item_id", "true_rating"), ids, [0.1, 0.2, 0.3])
        assert path.read_text().splitlines()[1:] == [
            'x"y,0.100000000', '"q",0.200000000', 'say ""hi"",0.300000000'
        ]
        assert list(ingest_ground_truth(path)) == ids

    @pytest.mark.parametrize("key, message", UNWRITABLE_IDS)
    def test_comma_in_id_rejected_before_open(self, tmp_path, key, message):
        path = tmp_path / "scores.csv"
        path.write_text("kept\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            write_scores_csv(
                path, ("item_id", "true_rating"),
                ["Heat", key, "a,b"], [0.1, 0.2, 0.3],
            )
        assert path.read_text() == "kept\n"

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.text(alphabet=st.characters(
        codec="utf-8", exclude_characters=',"\r\n'), min_size=1).filter(
            lambda i: i == i.strip()), max_size=8))
    def test_bytes_match_csv_module(self, tmp_path_factory, ids):
        # Writable ids without a quote are written as the csv module's
        # minimal quoting would write them.
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        values = np.linspace(-1.0, 1.0, len(ids))
        write_scores_csv(path, ("id", "value"), ids, values)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("id", "value"))
        writer.writerows((i, f"{v:.9f}") for i, v in zip(ids, values.tolist()))
        assert path.read_text(encoding="utf-8") == expected.getvalue()


class TestFormats:
    def test_default_delimiter(self):
        assert MOVIELENS_FORMAT.delimiter == "::"

    def test_empty_delimiter_rejected(self):
        with pytest.raises(ValueError):
            DelimitedFormat("")
