"""Unit tests for the command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main, non_negative_int, parse_universe

RULES = """
a(X) <- X >= 3.
a(X) <- b(X).
b(X) <- X >= 5.
c(X) <- a(X).
"""


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.pl"
    path.write_text(RULES, encoding="utf-8")
    return str(path)


def run_cli(*argv: str):
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    return code, stream.getvalue()


class TestMaterializeAndQuery:
    def test_materialize_prints_entries(self, rules_file):
        code, output = run_cli("materialize", rules_file)
        assert code == 0
        assert "a(X) <- X >= 3" in output
        assert "-- 5 entries (tp)" in output

    def test_materialize_wp(self, rules_file):
        code, output = run_cli("materialize", rules_file, "--operator", "wp")
        assert code == 0
        assert "(wp)" in output

    def test_materialize_with_query(self, rules_file):
        code, output = run_cli(
            "materialize", rules_file, "--query", "b", "--universe", "0:10"
        )
        assert code == 0
        assert "b(5)" in output and "b(9)" in output

    def test_query_command(self, rules_file):
        code, output = run_cli("query", rules_file, "c", "--universe", "0:8")
        assert code == 0
        assert "c(3)" in output and "-- 5 instances" in output

    def test_query_list_universe(self, rules_file):
        code, output = run_cli("query", rules_file, "b", "--universe", "5,6,99")
        assert code == 0
        assert "b(99)" in output

    def test_malformed_universe_is_a_usage_error(self, rules_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("query", rules_file, "a", "--universe", "banana:apple")
        assert exit_info.value.code == 2
        assert "argument --universe" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (None, None),
            ("0:3", [0, 1, 2]),
            ("-2:1", [-2, -1, 0]),
            ("5:5", []),
            ("5, 6,99", [5, 6, 99]),
            ("a,b,,7", ["a", "b", 7]),
        ],
    )
    def test_parse_universe(self, spec, expected):
        assert parse_universe(spec) == expected

    @pytest.mark.parametrize("spec", ["banana:apple", "1:x", "1.5:3"])
    def test_parse_universe_rejects_non_integer_bounds(self, spec):
        with pytest.raises(ValueError):
            parse_universe(spec)

    @pytest.mark.parametrize("text, expected", [("0", 0), ("12", 12)])
    def test_non_negative_int(self, text, expected):
        assert non_negative_int(text) == expected

    @pytest.mark.parametrize("text", ["-1", "two"])
    def test_non_negative_int_rejects(self, text):
        with pytest.raises(ValueError):
            non_negative_int(text)

    def test_missing_file(self):
        code, _ = run_cli("materialize", "/nonexistent/rules.pl")
        assert code == 2

    def test_parse_error_reported(self, tmp_path):
        bad = tmp_path / "bad.pl"
        bad.write_text("a(X <- 3.", encoding="utf-8")
        code, _ = run_cli("materialize", str(bad))
        assert code == 2


class TestUpdates:
    def test_delete_with_verification(self, rules_file):
        code, output = run_cli(
            "delete", rules_file, "b(X) <- X = 6",
            "--verify", "--query", "b", "--universe", "0:10",
        )
        assert code == 0
        assert "verification against declarative semantics: OK" in output
        assert "b(6)" not in output
        assert "b(7)" in output

    def test_delete_with_dred(self, rules_file):
        code, output = run_cli(
            "delete", rules_file, "b(X) <- X = 6", "--algorithm", "dred",
            "--query", "b", "--universe", "0:10",
        )
        assert code == 0
        assert "using dred" in output

    def test_insert(self, rules_file):
        code, output = run_cli(
            "insert", rules_file, "b(X) <- X = 1",
            "--query", "c", "--universe", "0:10", "--verify",
        )
        assert code == 0
        assert "c(1)" in output
        assert "OK" in output


class TestMisc:
    def test_examples_listing(self):
        code, output = run_cli("examples")
        assert code == 0
        assert "quickstart.py" in output

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        help_text = parser.format_help()
        for command in ("materialize", "query", "delete", "insert", "examples"):
            assert command in help_text

    def test_module_entry_point_importable(self):
        import repro.__main__  # noqa: F401
