"""Tests for benchmark instance generation and matrix file formats."""

import numpy as np
import pytest

from saddle_ssn.game import MatrixGame
from saddle_ssn.instances import (
    InstanceSpec,
    MatrixFileError,
    generate,
    load_matrix,
    save_matrix,
)

UNIFORM_4X3_SEED0_ROW0 = np.array([
    -0.9769064914273369, -0.5169016068745638, -0.7771482889701236,
])
NORMAL_2X2_SEED7 = np.array([
    [-1.7496944402112695, 0.5745441092559128],
    [0.6142833637530732, 0.2978597381915409],
])


class TestInstanceSpec:
    def test_random_kinds_validate_dimensions_and_seed(self):
        InstanceSpec(kind="uniform", n=3, m=4, seed=0)
        with pytest.raises(ValueError):
            InstanceSpec(kind="uniform", n=0, m=4)
        with pytest.raises(ValueError):
            InstanceSpec(kind="normal", n=3, m=-1)
        with pytest.raises(ValueError):
            InstanceSpec(kind="normal", n=3, m=4, seed=-2)

    def test_seeds_stay_below_the_philox_key_limit(self):
        top = InstanceSpec(kind="uniform", n=2, m=2, seed=2**128 - 1)
        assert generate(top).payoff.shape == (2, 2)
        with pytest.raises(ValueError, match="below 2\\*\\*128"):
            InstanceSpec(kind="uniform", n=2, m=2, seed=2**128)

    def test_file_seeds_stay_in_the_key_range(self):
        InstanceSpec(kind="file", path="g.csv", seed=2**128 - 1)
        with pytest.raises(ValueError, match="nonnegative"):
            InstanceSpec(kind="file", path="g.csv", seed=-1)
        with pytest.raises(ValueError, match="below 2\\*\\*128"):
            InstanceSpec(kind="file", path="g.csv", seed=2**128)

    def test_file_kind_requires_a_path(self):
        InstanceSpec(kind="file", path="games/a.csv")
        with pytest.raises(ValueError):
            InstanceSpec(kind="file")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            InstanceSpec(kind="sparse", n=2, m=2)

    def test_labels(self):
        assert InstanceSpec(kind="uniform", n=10, m=20).label() == "uniform-10x20"
        assert InstanceSpec(kind="normal", n=7, m=7, seed=3).label() == "normal-7x7"
        assert InstanceSpec(kind="file", path="/data/kuhn.csv").label() == "file-kuhn"


class TestGenerate:
    def test_uniform_entries_are_reproducible_bitwise(self):
        game = generate(InstanceSpec(kind="uniform", n=4, m=3, seed=0))
        assert np.array_equal(game.payoff[0], UNIFORM_4X3_SEED0_ROW0)

    def test_normal_entries_are_reproducible_bitwise(self):
        game = generate(InstanceSpec(kind="normal", n=2, m=2, seed=7))
        assert np.array_equal(game.payoff, NORMAL_2X2_SEED7)

    def test_same_spec_generates_identical_games(self):
        spec = InstanceSpec(kind="normal", n=30, m=17, seed=123)
        assert np.array_equal(generate(spec).payoff, generate(spec).payoff)

    def test_different_seeds_generate_different_games(self):
        a = generate(InstanceSpec(kind="uniform", n=5, m=5, seed=1))
        b = generate(InstanceSpec(kind="uniform", n=5, m=5, seed=2))
        assert not np.array_equal(a.payoff, b.payoff)

    def test_uniform_entries_live_in_the_interval(self):
        game = generate(InstanceSpec(kind="uniform", n=400, m=800, seed=0))
        assert game.payoff.min() >= -1.0
        assert game.payoff.max() <= 1.0
        assert -0.01 <= game.payoff.mean() <= 0.01

    def test_normal_entries_have_unit_variance(self):
        game = generate(InstanceSpec(kind="normal", n=400, m=800, seed=0))
        assert 0.98 <= game.payoff.var() <= 1.02

    def test_dimensions_match_the_spec(self):
        game = generate(InstanceSpec(kind="uniform", n=13, m=29, seed=5))
        assert game.payoff.shape == (13, 29)


class TestCsvFormat:
    def test_round_trips_random_matrices_bitwise(self, tmp_path):
        game = generate(InstanceSpec(kind="normal", n=5, m=7, seed=11))
        path = str(tmp_path / "payoff.csv")
        save_matrix(game, path)
        again = load_matrix(path)
        assert np.array_equal(again.payoff, game.payoff)

    def test_round_trips_non_dyadic_values(self, tmp_path):
        game = MatrixGame.from_payoff(np.array([[1.0 / 3.0, 0.1],
                                                [-2.0 / 7.0, 1e-300]]))
        path = str(tmp_path / "thirds.csv")
        save_matrix(game, path)
        assert np.array_equal(load_matrix(path).payoff, game.payoff)

    def test_reads_single_entry_matrix(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("0.5\n")
        game = load_matrix(str(path))
        assert game.payoff.shape == (1, 1)
        assert game.payoff[0, 0] == 0.5

    def test_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("1,2\n\n3,4\n")
        assert np.array_equal(load_matrix(str(path)).payoff,
                              np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_ragged_rows_report_the_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(MatrixFileError, match=r":2: row has 2 entries, expected 3"):
            load_matrix(str(path))

    def test_bad_tokens_report_line_and_column(self, tmp_path):
        path = tmp_path / "tokens.csv"
        path.write_text("1,zebra,3\n")
        with pytest.raises(MatrixFileError, match=r":1: column 2: not a number"):
            load_matrix(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MatrixFileError, match="no matrix rows"):
            load_matrix(str(path))

    def test_a_byte_order_mark_reports_the_line(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n")
        with pytest.raises(MatrixFileError,
                           match=r"bom\.csv:1: byte 0xef is not ASCII"):
            load_matrix(str(path))

    def test_uppercase_extension_is_accepted(self, tmp_path):
        path = tmp_path / "upper.CSV"
        path.write_text("1,2\n3,4\n")
        assert load_matrix(str(path)).payoff.shape == (2, 2)


class TestMtxFormat:
    def test_round_trips_matrices_with_zeros(self, tmp_path):
        payoff = np.array([[0.0, 1.5, 0.0], [-2.25, 0.0, 1.0 / 3.0]])
        game = MatrixGame.from_payoff(payoff)
        path = str(tmp_path / "sparse.mtx")
        save_matrix(game, path)
        again = load_matrix(path)
        assert np.array_equal(again.payoff, payoff)

    def test_written_header_is_canonical(self, tmp_path):
        game = MatrixGame.from_payoff(np.array([[1.0]]))
        path = tmp_path / "tiny.mtx"
        save_matrix(game, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "%%MatrixMarket matrix coordinate real general"

    def test_comment_lines_are_skipped(self, tmp_path):
        path = tmp_path / "comments.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "% generated by hand\n"
                        "2 2 2\n"
                        "% diagonal follows\n"
                        "1 1 4.5\n"
                        "2 2 -1\n")
        game = load_matrix(str(path))
        assert np.array_equal(game.payoff, np.array([[4.5, 0.0], [0.0, -1.0]]))

    def test_wrong_header_reports_first_line(self, tmp_path):
        path = tmp_path / "h.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n1 1 1\n")
        with pytest.raises(MatrixFileError, match=r":1: expected header"):
            load_matrix(str(path))

    def test_malformed_size_line_is_reported(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2\n")
        with pytest.raises(MatrixFileError, match="size line"):
            load_matrix(str(path))

    def test_non_integer_size_line_is_reported(self, tmp_path):
        path = tmp_path / "s2.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 two 0\n")
        with pytest.raises(MatrixFileError, match="three integers"):
            load_matrix(str(path))

    def test_entry_count_mismatch_is_reported(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n"
                        "1 1 1.0\n")
        with pytest.raises(MatrixFileError, match="declares 3 entries but file has 1"):
            load_matrix(str(path))

    def test_out_of_range_index_reports_the_line(self, tmp_path):
        path = tmp_path / "idx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n"
                        "3 1 1.0\n")
        with pytest.raises(MatrixFileError, match=r":3: index \(3, 1\) outside"):
            load_matrix(str(path))

    def test_malformed_entry_reports_the_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n"
                        "1 1 abc\n")
        with pytest.raises(MatrixFileError, match=r":3: malformed entry"):
            load_matrix(str(path))

    def test_a_latin1_byte_reports_the_line(self, tmp_path):
        path = tmp_path / "latin1.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real general\n"
                         b"2 2 2\n"
                         b"1 1 1.0\n"
                         b"2 2 \xb51.0\n")
        with pytest.raises(MatrixFileError,
                           match=r"latin1\.mtx:4: byte 0xb5 is not ASCII"):
            load_matrix(str(path))

    def test_repeated_entry_reports_both_lines(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 3\n"
                        "1 1 1.0\n"
                        "% the same coordinate again\n"
                        "2 1 2.0\n"
                        "1 1 5.0\n")
        with pytest.raises(MatrixFileError,
                           match=r":6: entry \(1, 1\) repeats line 3"):
            load_matrix(str(path))

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "e.mtx"
        path.write_text("")
        with pytest.raises(MatrixFileError, match="empty file"):
            load_matrix(str(path))


class TestExtensionDispatch:
    def test_unsupported_extension_on_load(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_text("1,2\n")
        with pytest.raises(MatrixFileError, match="unsupported matrix file extension"):
            load_matrix(str(path))

    def test_unsupported_extension_on_save(self, tmp_path):
        game = MatrixGame.from_payoff(np.array([[1.0]]))
        with pytest.raises(MatrixFileError, match="unsupported matrix file extension"):
            save_matrix(game, str(tmp_path / "a.json"))

    def test_generate_delegates_to_the_loader(self, tmp_path):
        payoff = np.array([[1.0, -2.0], [3.5, 0.25]])
        path = str(tmp_path / "fixed.csv")
        save_matrix(MatrixGame.from_payoff(payoff), path)
        game = generate(InstanceSpec(kind="file", path=path))
        assert np.array_equal(game.payoff, payoff)
