"""Command-line interface: spec grammar, output formats, exit codes."""

import numpy as np
import pytest

from subnorms import DEFAULT_TOL, FamilySpec, IntervalGrid, compare, make_family
from subnorms.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_operator_spec,
    parse_tol,
)
from subnorms.ordering import serialize_verdict


class TestSpecGrammar:
    def test_bare_name(self):
        spec = parse_operator_spec("hamacher0")
        assert spec.family == "hamacher0" and spec.params == {}

    def test_params(self):
        spec = parse_operator_spec("dombi:a=0.6,l=2")
        assert spec.family == "dombi_sub"
        assert spec.params == {"a": 0.6, "l": 2.0}

    def test_aliases(self):
        assert parse_operator_spec("ss:a=0.5,l=-2").family == "ss_sub"
        assert parse_operator_spec("log:a=0.5,l=1").family == "log_sub"
        assert parse_operator_spec("aa:a=0.5,l=2").family == "aa_sub"

    @pytest.mark.parametrize("bad", ["nosuch", "rational:a", "rational:=1",
                                     "rational:a=abc"])
    def test_bad_specs(self, bad):
        from subnorms.cli import SpecSyntaxError
        with pytest.raises(SpecSyntaxError):
            parse_operator_spec(bad)

    def test_tol_overrides(self):
        tol = parse_tol("verdict_margin=1e-4,derivative_step=1e-5")
        assert tol.verdict_margin == 1e-4
        assert tol.derivative_step == 1e-5
        assert tol.inversion_tol == DEFAULT_TOL.inversion_tol
        assert parse_tol(None) is DEFAULT_TOL


class TestEval:
    def test_known_values(self, capsys):
        assert main(["eval", "hamacher0", "0.5", "0.5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.333333333333"
        assert main(["eval", "rational:a=0.5", "1", "1"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.666666666667"
        assert main(["eval", "product", "0.3", "0"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0"

    def test_exit_codes(self, capsys):
        assert main(["eval", "nosuch", "0.5", "0.5"]) == EXIT_PARSE
        assert main(["eval", "product", "2", "0.5"]) == EXIT_DOMAIN
        assert main(["eval", "yager:l=-1", "0.5", "0.5"]) == EXIT_DOMAIN
        capsys.readouterr()


class TestCompare:
    def test_dominated_record(self, capsys):
        assert main(["compare", "rational:a=0.5", "rational:a=0.7"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: dominated" in out

    def test_incomparable_has_two_witnesses(self, capsys):
        assert main(["compare", "half_product", "yager:l=2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: incomparable" in out
        assert out.count("witness: ") == 2

    def test_product_vs_rational_is_incomparable(self, capsys):
        assert main(["compare", "product", "rational:a=0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "verdict: incomparable" in out
        assert out.count("witness: ") == 2

    def test_equal(self, capsys):
        assert main(["compare", "product", "product"]) == EXIT_OK
        assert "verdict: equal" in capsys.readouterr().out

    def test_verdict_equals_library_call(self, capsys):
        args = ["compare", "dombi:a=0.6,l=1", "dombi:a=0.6,l=2",
                "--criterion", "subadditivity", "--grid", "51"]
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out.strip()
        S1 = make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 1.0}))
        S2 = make_family(FamilySpec("dombi_sub", {"a": 0.6, "l": 2.0}))
        expected = serialize_verdict(compare(S1, S2, IntervalGrid.uniform(51),
                                             criterion="subadditivity"))
        assert printed == expected

    def test_unknown_criterion(self, capsys):
        assert main(["compare", "product", "product",
                     "--criterion", "nope"]) == EXIT_PARSE
        capsys.readouterr()


class TestScan:
    def test_dombi_increasing(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "0.5,1,2,4",
                     "--criterion", "concavity"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chain: increasing" in out
        assert out.count("agree: true") == 3

    def test_ss_decreasing(self, capsys):
        # negative values need the = form so argparse does not read them as flags
        assert main(["scan", "ss:a=0.5", "--lambdas=-3,-2,-1",
                     "--criterion", "derivative_ratio"]) == EXIT_OK
        assert "chain: decreasing" in capsys.readouterr().out

    def test_log_increasing(self, capsys):
        assert main(["scan", "log:a=0.5", "--lambdas", "1,2",
                     "--criterion", "ratio"]) == EXIT_OK
        assert "chain: increasing" in capsys.readouterr().out

    def test_parameter_domain_violation(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas=-1,1",
                     "--criterion", "ratio"]) == EXIT_DOMAIN
        capsys.readouterr()

    def test_family_without_lambda(self, capsys):
        assert main(["scan", "product", "--lambdas", "1,2"]) == EXIT_DOMAIN
        assert "product has no parameter 'l'" in capsys.readouterr().err

    def test_bad_lambda_list(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "a,b",
                     "--criterion", "ratio"]) == EXIT_PARSE
        capsys.readouterr()

    def test_unknown_criterion(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "0.5,1",
                     "--criterion", "nope"]) == EXIT_PARSE
        assert "unknown criterion 'nope'" in capsys.readouterr().err


class TestSurface:
    def test_corner_values_and_shape(self, capsys):
        assert main(["surface", "half_product", "--resolution", "3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 1 + 9
        assert lines[-1] == "1,1,0.5"

    def test_row_major_order(self, capsys):
        assert main(["surface", "product", "--resolution", "3"]) == EXIT_OK
        rows = [tuple(map(float, line.split(",")))
                for line in capsys.readouterr().out.strip().splitlines()[1:]]
        xs = [r[0] for r in rows]
        assert xs == sorted(xs)
        assert rows[1] == (0.0, 0.5, 0.0)

    def test_bounded_by_min(self, capsys):
        assert main(["surface", "dombi:a=0.6,l=2", "--resolution", "41"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 41 * 41
        for line in lines:
            x, y, z = map(float, line.split(","))
            assert z <= min(x, y) + 1e-9

    def test_yager_zero_region(self, capsys):
        assert main(["surface", "yager:l=2", "--resolution", "41"]) == EXIT_OK
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            x, y, z = map(float, line.split(","))
            if (1 - x) ** 2 + (1 - y) ** 2 >= 1.0:
                assert z == 0.0

    def test_byte_deterministic_file_output(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["surface", "rational:a=0.5", "--resolution", "17",
                         "--out", str(out)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_unwritable_path(self, capsys):
        assert main(["surface", "product", "--resolution", "3",
                     "--out", "/nonexistent/dir/surface.csv"]) == EXIT_IO
        capsys.readouterr()

    def test_resolution_too_small(self, capsys):
        assert main(["surface", "product", "--resolution", "1"]) == EXIT_PARSE
        capsys.readouterr()


class TestVerifyPaper:
    def test_exit_zero_and_reports_each_item(self, capsys):
        assert main(["verify-paper"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS ") == 9
        assert "FAIL" not in out
