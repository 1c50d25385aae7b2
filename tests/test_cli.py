"""Command-line interface: spec grammar, output formats, exit codes."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from subnorms import (DEFAULT_TOL, FamilySpec, IntervalGrid, ParameterError,
                      direct_compare, make_family, run_criterion)
from subnorms.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
    parse_operator_spec,
    parse_tol,
)
from subnorms.ordering import CRITERION_NAMES, serialize_verdict


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
        tol = parse_tol("verdict_margin=1e-4,inversion_tol=1e-10")
        assert tol.verdict_margin == 1e-4
        assert tol.inversion_tol == 1e-10
        assert parse_tol("verdict_margin=1e-4").inversion_tol == DEFAULT_TOL.inversion_tol
        assert parse_tol(None) is DEFAULT_TOL

    @pytest.mark.parametrize("text", ["derivative_step=1e-6", "abs_eval_tol=1e-9"])
    def test_removed_tol_fields_are_rejected(self, text, capsys):
        from subnorms.cli import SpecSyntaxError
        with pytest.raises(SpecSyntaxError, match="fields: inversion_tol, verdict_margin"):
            parse_tol(text)
        assert main(["--tol", text, "compare", "product", "hamacher0"]) == EXIT_PARSE
        assert "fields: inversion_tol, verdict_margin" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "rational:a=0.5,a=0.7", "0.5", "0.5"],
        ["--tol", "verdict_margin=1e-4,verdict_margin=1e-5", "compare", "product",
         "hamacher0"],
    ])
    def test_repeated_key_is_a_parse_error(self, argv, capsys):
        assert main(argv) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and "repeated key" in err

    def test_bad_tol_is_a_parse_error_for_verify_paper(self, capsys):
        assert main(["--tol", "garbage", "verify-paper"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and "bad tolerance override 'garbage'" in err

    @pytest.mark.parametrize("text", ["verdict_margin=1e-4", "inversion_tol=1e-10", ""])
    def test_verify_paper_refuses_a_tol(self, text, capsys):
        # no paper check reads the profile, so an override would be ignored
        assert main(["--tol", text, "verify-paper"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == "" and "at the default profile" in err

    def test_margin_below_the_sampled_box_is_a_domain_error(self, capsys):
        assert main(["--tol", "verdict_margin=1e-9", "compare", "product",
                     "hamacher0"]) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and "verdict_margin must be at least 1e-06" in err

    def test_infinite_tolerance_is_a_domain_error(self, capsys):
        # an infinite margin would call every pair equal
        with pytest.raises(ParameterError, match="verdict_margin must be finite"):
            parse_tol("verdict_margin=inf")
        assert main(["--tol", "verdict_margin=inf", "compare", "product",
                     "hamacher0"]) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and "verdict_margin must be finite" in err

    def test_inversion_tol_below_the_floor_is_a_domain_error(self, capsys):
        assert main(["--tol", "inversion_tol=1e-16", "compare", "product",
                     "hamacher0"]) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and "inversion_tol must be at least" in err

    @pytest.mark.parametrize("spec", ["yager:l=inf", "dombi:a=0.6,l=nan"])
    def test_non_finite_parameter_is_a_domain_error(self, spec, capsys):
        assert main(["eval", spec, "0.5", "0.7"]) == EXIT_DOMAIN
        out, err = capsys.readouterr()
        assert out == "" and "must be finite" in err


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

    def test_product_vs_rational_witnesses(self, capsys):
        # the residual matrix decides; S1 > S2 at the corner, S1 < S2 near 0
        assert main(["compare", "product", "rational:a=0.5"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == ["criterion: subadditivity_test", "verdict: incomparable"]
        witnesses = [line for line in out if line.startswith("witness: ")]
        assert len(witnesses) == 2
        assert "witness: 1 1 1 0.666666667" in witnesses

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
        grid = IntervalGrid.uniform(51)
        rep = run_criterion("subadditivity", S1, S2, grid)
        expected = serialize_verdict(replace(direct_compare(S1, S2, grid),
                                             criterion=f"subadditivity:{rep.verdict}"))
        assert printed == expected

    @pytest.mark.parametrize("name", CRITERION_NAMES)
    def test_named_criterion_rejects_a_fixture_operand(self, name, capsys):
        # named criteria need generators on both sides, the strict-t-norm rows too
        for lhs, rhs in [("product", "yager:l=2"), ("yager:l=2", "product")]:
            assert main(["compare", lhs, rhs, "--criterion", name]) == EXIT_DOMAIN
            out, err = capsys.readouterr()
            assert out == "" and "generator-backed operands" in err

    def test_unknown_criterion(self, capsys):
        assert main(["compare", "product", "product",
                     "--criterion", "nope"]) == EXIT_PARSE
        capsys.readouterr()

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_grid_too_small(self, n, capsys):
        assert main(["compare", "product", "hamacher0", "--grid", n]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: --grid must be at least 2\n"


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

    @pytest.mark.parametrize("name", CRITERION_NAMES)
    def test_named_criterion_rejects_a_fixture_operand(self, name, capsys):
        # named criteria need generators on both sides, the strict-t-norm rows too
        for lhs, rhs in [("product", "yager:l=2"), ("yager:l=2", "product")]:
            assert main(["compare", lhs, rhs, "--criterion", name]) == EXIT_DOMAIN
            out, err = capsys.readouterr()
            assert out == "" and "generator-backed operands" in err

    def test_unknown_criterion(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "0.5,1",
                     "--criterion", "nope"]) == EXIT_PARSE
        assert "unknown criterion 'nope'" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_grid_too_small(self, n, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "0.5,1", "--grid", n]) == EXIT_PARSE
        assert capsys.readouterr().err == "parse error: --grid must be at least 2\n"

    def test_smallest_grid(self, capsys):
        assert main(["scan", "dombi:a=0.6", "--lambdas", "0.5,1", "--grid", "2"]) == EXIT_OK
        capsys.readouterr()


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
        assert capsys.readouterr().err.startswith("io error: ")

    def test_resolution_too_small(self, capsys):
        assert main(["surface", "product", "--resolution", "1"]) == EXIT_PARSE
        capsys.readouterr()


class TestVerifyPaper:
    def test_exit_zero_and_reports_each_item(self, capsys):
        assert main(["verify-paper"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("PASS ") == 9
        assert "FAIL" not in out


def test_import_loads_no_masked_arrays():
    # numpy 2.4's np.unique imports numpy.ma (about 11 ms); cold eval and surface
    # runs build no grid, so importing the package must not build one either;
    # compare, scan and verify-paper build grids and samples, without np.unique
    # or np.median
    def loads_ma(module, run="None"):
        probe = f"import sys, {module}; {run}; print('numpy.ma' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, check=True)
        return proc.stdout.split()[-1] == "True"

    if loads_ma("numpy"):
        pytest.skip("import numpy alone loads numpy.ma here")
    assert not loads_ma("subnorms.cli")
    assert not loads_ma("subnorms.cli", "subnorms.cli.main(['compare', 'product', 'hamacher0']); "
                        "subnorms.cli.main(['scan', 'dombi:a=0.6', '--lambdas=1,2']); "
                        "subnorms.cli.main(['verify-paper'])")
