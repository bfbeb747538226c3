"""Tests for numeric table parsing and regressor recipes."""

import numpy as np
import pytest

from lmsbound.ingest import (
    ColumnOutOfRange,
    ParseError,
    RaggedRow,
    RawTable,
    RecipeTerm,
    RegressorRecipe,
    build_design,
    parse_table,
    parse_table_text,
    write_canonical_csv,
)
from lmsbound.moments import EmptyData


class TestParseTableText:
    def test_whitespace_table(self):
        table = parse_table_text("1 2 3\n4 5 6\n")
        assert table.n_rows == 2
        assert table.n_cols == 3
        assert np.array_equal(table.values, [[1, 2, 3], [4, 5, 6]])
        assert not table.header_skipped

    def test_mixed_spacing_and_blank_lines(self):
        table = parse_table_text("  1\t 2 \n\n   \n3  4\n")
        assert np.array_equal(table.values, [[1, 2], [3, 4]])

    def test_header_line_skipped(self):
        table = parse_table_text("pressure flow\n1 2\n3 4\n")
        assert table.header_skipped
        assert table.n_rows == 2

    def test_only_first_line_may_be_header(self):
        with pytest.raises(ParseError) as err:
            parse_table_text("h1 h2\n1 2\nbad 4\n")
        assert err.value.line == 3
        assert err.value.column == 1
        assert err.value.token == "bad"

    def test_ragged_row_reports_location(self):
        with pytest.raises(RaggedRow) as err:
            parse_table_text("1 2\n3 4\n5 6 7\n")
        assert err.value.line == 3
        assert err.value.expected == 2
        assert err.value.got == 3

    def test_empty_input(self):
        with pytest.raises(EmptyData):
            parse_table_text("")
        with pytest.raises(EmptyData):
            parse_table_text("only a header\n")

    def test_csv_delimiter(self):
        table = parse_table_text("1,2\n3,4\n", delimiter=",")
        assert np.array_equal(table.values, [[1, 2], [3, 4]])

    def test_non_finite_tokens_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_table_text("1 2\n3 nan\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_scientific_notation(self):
        table = parse_table_text("1e-3 2.5E2\n-1.5 +4\n")
        assert np.allclose(table.values, [[0.001, 250.0], [-1.5, 4.0]])


class TestParseTableFile:
    def test_extension_selects_dialect(self, tmp_path):
        prn = tmp_path / "data.prn"
        prn.write_text("h1 h2\n1 2\n3 4\n")
        table = parse_table(prn)
        assert table.header_skipped
        assert np.array_equal(table.values, [[1, 2], [3, 4]])

        csv = tmp_path / "data.csv"
        csv.write_text("1,2\n3,4\n")
        table = parse_table(csv)
        assert np.array_equal(table.values, [[1, 2], [3, 4]])

    def test_source_recorded(self, tmp_path):
        path = tmp_path / "rows.prn"
        path.write_text("1 2\n")
        assert parse_table(path).source == str(path)


class TestCanonicalCsv:
    def test_round_trip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
        path = tmp_path / "canon.csv"
        write_canonical_csv(values, path)
        back = parse_table(path)
        assert np.array_equal(back.values, values)

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "canon.csv"
        write_canonical_csv(np.array([[1.5, 2.0]]), path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


class TestRecipeParse:
    def test_full_syntax(self):
        recipe = RegressorRecipe.parse(
            "column(0), product(0, 1), square(1), constant(1)")
        assert [t.kind for t in recipe.terms] == [
            "column", "product", "square", "constant"]
        assert recipe.terms[1].i == 0
        assert recipe.terms[1].j == 1

    def test_describe_round_trip(self):
        text = "column(0), product(0,1), square(1), constant(1)"
        recipe = RegressorRecipe.parse(text)
        again = RegressorRecipe.parse(recipe.describe())
        assert again == recipe

    def test_constant_value(self):
        recipe = RegressorRecipe.parse("constant(-2.5e-1)")
        assert recipe.terms[0].value == pytest.approx(-0.25)

    @pytest.mark.parametrize("bad", [
        "col(0)", "square(a)", "product(1)", "column(0) square(1)",
        "column(-1)"])
    def test_bad_terms(self, bad):
        with pytest.raises(ValueError, match="bad recipe term"):
            RegressorRecipe.parse(bad)

    def test_empty_recipe(self):
        with pytest.raises(ValueError, match="at least one term"):
            RegressorRecipe.parse("")


class TestBuildDesign:
    def table(self):
        return RawTable(np.array([[1.0, 2.0, 10.0],
                                  [3.0, 4.0, 20.0],
                                  [5.0, 6.0, 30.0]]))

    def test_matches_numpy_oracle(self):
        recipe = RegressorRecipe.parse(
            "column(0), square(1), product(0,1), constant(1)")
        design = build_design(self.table(), recipe, response_col=2)
        v = self.table().values
        expected = np.column_stack(
            [v[:, 0], v[:, 1] ** 2, v[:, 0] * v[:, 1], np.ones(3)])
        assert np.array_equal(design.rows, expected)
        assert np.array_equal(design.responses, v[:, 2])

    def test_without_responses(self):
        design = build_design(self.table(), RegressorRecipe.parse("column(1)"))
        assert design.responses is None
        assert design.dim == 1

    def test_recipe_column_out_of_range(self):
        with pytest.raises(ColumnOutOfRange, match="column 3"):
            build_design(self.table(), RegressorRecipe.parse("column(3)"))
        with pytest.raises(ColumnOutOfRange):
            build_design(self.table(), RegressorRecipe.parse("product(0,5)"))

    def test_response_column_out_of_range(self):
        with pytest.raises(ColumnOutOfRange, match="response column"):
            build_design(self.table(), RegressorRecipe.parse("column(0)"),
                         response_col=3)

    def test_term_evaluate_constant(self):
        term = RecipeTerm("constant", value=2.0)
        assert np.array_equal(term.evaluate(np.zeros((4, 2))), np.full(4, 2.0))
        assert term.column_indices() == ()
