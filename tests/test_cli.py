import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

from besselsum import cli, identity, quadrature, specfun, summation
from besselsum.cli import CliError, main, parse_number
from besselsum.errors import ConfigError, InvalidSpec

PI = math.pi


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.4", 0.4),
            ("pi", PI),
            ("pi/16", PI / 16),
            ("3*pi/16", 3 * PI / 16),
            ("2*pi - pi/2", 2 * PI - PI / 2),
            ("-1.5", -1.5),
        ],
    )
    def test_accepts(self, text, value):
        assert parse_number(text) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize("text", ["pi**2", "os.system('x')", "foo", "1/0", "2;3"])
    def test_rejects(self, text):
        with pytest.raises(CliError):
            parse_number(text)


class TestCompute:
    def test_json_absolute_class(self, capsys):
        rc = main(
            [
                "compute",
                "--nu", "0.5,1.5",
                "--a", "0.19634954,1.0",
                "--k", "0",
                "--terms", "1000",
                "--format", "json",
            ]
        )
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["class"] == "absolute"
        assert out["terms_used"] == 1000

    def test_tol_driven_sine_series(self, capsys):
        rc = main(["compute", "--nu", "0.5", "--a", "1.0", "--k", "0", "--tol", "1e-6",
                   "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"] == pytest.approx(math.sqrt(2 / PI) * PI / 2, rel=1e-6)

    def test_auto_rescale(self, capsys):
        rc = main(["compute", "--nu", "0.5,1.5", "--a", "7.0,7.0", "--k", "0",
                   "--format", "json"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rescaled"] is True

    def test_nan_tol_is_invalid_spec_exit_2(self, capsys):
        rc = main(["compute", "--nu", "0.5", "--a", "1.0", "--tol", "nan"])
        assert rc == 2
        assert capsys.readouterr().err == "invalid spec: tol must be positive, got nan\n"

    @pytest.mark.parametrize(
        "nu, message",
        [
            ("1e300", "error: the sum is nan: its terms leave the float range\n"),
            # lgamma overflows in the m = 0 term
            ("1e308", "error: small-argument coefficient of J_1e+308(1 t) or its log is "
                      "beyond the float range\n"),
        ],
    )
    def test_sum_beyond_float_range_is_domain_error_exit_2(self, capsys, nu, message):
        rc = main(["compute", "--nu", nu, "--a", "1"])
        assert rc == 2
        assert capsys.readouterr() == ("", message)

    def test_terms_below_ten_report_no_bound(self, capsys):
        rc = main(["compute", "--nu", "0.5", "--a", "2.0", "--terms", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "error_bound = inf" in out

    @pytest.mark.parametrize(
        "nu, a, k",
        [
            ("200.5", "0.5", "0"),
            ("-180.5,200", "1,1", "0"),
            ("50,50", "1e10,1", "0"),
            ("0.3,0.3,0.3,0.2", "1e300,1,1,1", "1"),
        ],
    )
    def test_float_range_overflow_ends_typed(self, capsys, nu, a, k):
        # Gamma(201.5) overflows a double and Gamma(-179.5) underflows, the
        # rescale prefactor A^99 overflows and A^-1.9 underflows: a value or
        # exit 2, never an internal error, and fast
        start = time.perf_counter()
        rc = main(["compute", f"--nu={nu}", f"--a={a}", f"--k={k}"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert rc in (0, 2) and "internal error" not in err
        assert rc == 2 or "value = " in out
        assert elapsed < 1.0

    def test_terms_beyond_the_cap_exit_2(self, capsys):
        rc = main(["compute", "--nu", "0.5", "--a", "1.0", "--terms", "1000000000000"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "error: 1000000000000 terms requested, beyond the cap of 16777216\n"

    def test_factors_beyond_the_beat_table_exit_2(self, capsys):
        rc = main(["validate", "--nu", ",".join(["1.5"] * 21), "--a", ",".join(["0.1"] * 21)])
        assert rc == 2
        assert "N = 21 factors" in capsys.readouterr().err

    def test_invalid_spec_exit_2(self, capsys):
        rc = main(["compute", "--nu", "0.0", "--a", "1.0", "--k", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "R3" in err

    def test_parse_error_exit_1(self, capsys):
        rc = main(["compute", "--nu", "0.5,oops", "--a", "1.0,1.0"])
        assert rc == 1
        assert "--nu" in capsys.readouterr().err

    def test_length_mismatch_exit_1(self, capsys):
        rc = main(["compute", "--nu", "0.5,1.5", "--a", "1.0"])
        assert rc == 1
        assert "lengths must match" in capsys.readouterr().err

    @pytest.mark.parametrize("terms", ["5", "10"])  # 10 is also the default
    def test_terms_and_tol_exclusive_exit_1(self, capsys, terms):
        rc = main(["compute", "--nu", "0.5", "--a", "1.0", "--terms", terms, "--tol", "1e-6"])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert "not allowed with argument --terms" in err

    def test_no_accelerated_bound_before_the_turning_point(self, capsys):
        # averaging once printed value 0 with error_bound 0 here; the
        # integral is about 5.6e161
        rc = main(["compute", "--nu", "0.5", "--a", "5e-324", "--tol", "1e-6"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err.startswith("tolerance unreachable: ")


class TestValidate:
    def test_negative_integer_extension_logged(self, capsys):
        rc = main(["validate", "--nu=-1.5,-1,0.5,0", "--a", "pi/16,pi/16,pi/16,1.0",
                   "--k=-1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "R1-neg-int" in out and "relax the k-condition to k >= -1\n" in out

    def test_beat_witness_printed(self, capsys):
        rc = main(["validate", "--nu", "0.5,0.5,1.5", "--a", "1,1,2"])
        assert rc == 0
        assert "beat_witness" in capsys.readouterr().out

    def test_boundary_with_exact_threshold_invalid(self, capsys):
        rc = main(["validate", "--nu", "0.3,-0.3", "--a", "pi,pi"])
        assert rc == 2
        assert "R4" in capsys.readouterr().out

    def test_spec_file(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"k": 0, "factors": [{"nu": 0.5, "a": 1.0}]}))
        assert main(["validate", "--spec", str(path)]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--nu", "0.5,0.5", "--a", "1e308,1e308"],  # sum of the scales
            ["--nu", "1e308,1e308", "--a", "1,1"],  # sum of the orders
            ["--nu", "0.5", "--a", "1", "--k", "9" * 400],  # 2.0 * k
        ],
    )
    def test_flags_beyond_float_range_are_bad_spec_exit_1(self, capsys, argv):
        assert main(["validate", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad spec from flags: ") and "internal error" not in err

    def test_spec_file_k_beyond_float_range_is_malformed_exit_1(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"k": 1e400, "factors": [{"nu": 0.5, "a": 1.0}]}')
        assert main(["validate", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "malformed spec file" in err and "k must be an integer, got inf" in err

    def test_missing_spec_file_exit_1(self, capsys):
        assert main(["validate", "--spec", "/nonexistent/spec.json"]) == 1

    def test_r1_bound_reads_zero_without_negative_integers(self, capsys):
        # the bound is 0 - sum over no orders: printed 0, never -0
        rc = main(["validate", "--nu", "0.5", "--a", "1.0", "--k", "-1"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "[R1] (VIOLATED) k = -1 violates k >= 0 (t -> 0 limit" in out
        assert "-0" not in out
        reason = r"^integral does not exist: k = -1 violates k >= 0 \("
        with pytest.raises(InvalidSpec, match=reason):
            quadrature.integrate(identity.make_spec(-1, [0.5], [1.0]), 10.0)


def read_csv(path):
    """(meta, rows) of a sweep CSV; each row is (b, sum, quad, diff, valid, class)
    with the four floats parsed by float()."""
    meta_line, header, *lines = pathlib.Path(path).read_text().splitlines()
    assert meta_line.startswith("# meta: ")
    assert header == ",".join(cli.CSV_COLUMNS)
    rows = []
    for line in lines:
        *nums, valid, klass = line.split(",")
        rows.append((*map(float, nums), valid == "true", klass))
    return json.loads(meta_line[len("# meta: ") :]), rows


class TestSweep:
    def run_sweep(self, tmp_path, name="s.csv", fmt="csv", rng="0.1:6.0:5"):
        out = tmp_path / name
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5",
                "--a", "pi/16,1.0",
                "--vary", "1",
                "--range", rng,
                "--terms", "10",
                "--t-max", "10",
                "--out", str(out),
                "--format", fmt,
            ]
        )
        return rc, out

    def test_csv_structure_and_boundary(self, tmp_path):
        rc, out = self.run_sweep(tmp_path)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# meta: ")
        meta = json.loads(lines[0][len("# meta: ") :])
        assert meta["b_star"] == pytest.approx(2 * PI - PI / 16)
        assert lines[1] == "b,sum_value,quad_value,abs_diff,valid,class"
        assert len(lines) == 2 + 5

    def test_deterministic_bytes(self, tmp_path):
        _, out1 = self.run_sweep(tmp_path, "a.csv")
        _, out2 = self.run_sweep(tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()

    def test_round_trip_bitwise(self, tmp_path):
        _, out = self.run_sweep(tmp_path)
        meta, rows = read_csv(out)
        spec = identity.BesselProductSpec.from_dict(meta["spec"])
        fresh = cli.run_sweep(spec, meta["vary"], [r[0] for r in rows],
                              terms=meta["terms"], t_max=meta["t_max"])
        assert len(rows) == len(fresh.rows) == 5
        for (b, s, q, d, _, _), direct in zip(rows, fresh.rows):
            assert b == direct.b  # bitwise
            assert s == direct.sum_value
            assert q == direct.quad_value
            assert d == abs(s - q)

    def test_many_b_rows_equal_single_b_calls(self):
        # reproduce_sweeps.py sweeps many b per call, the benchmark one b per
        # call; both shapes must give the same rows bit for bit
        template = identity.make_spec(2, [0.0, 1.0, 2.0], [3 * PI / 16, 3 * PI / 16, 1.0])
        bs = [0.4, 1.9, 3.3, 5.0, 5.6]  # the last lies past b* = 5.105
        many = cli.run_sweep(template, 2, bs, terms=10, t_max=10.0).rows
        singles = [cli.run_sweep(template, 2, [b], terms=10, t_max=10.0).rows[0] for b in bs]
        assert not many[-1].valid

        def bits(row):
            return (row.b.hex(), row.sum_value.hex(), row.quad_value.hex(),
                    row.abs_diff.hex(), row.valid, row.klass)

        assert [bits(r) for r in many] == [bits(r) for r in singles]

    def test_row_sum_is_the_spec_sum(self):
        # sweeps sum through the same blocked kernel as compute, also past
        # one 4096-block
        template = identity.make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [3 * PI / 16] * 3 + [1.0])
        row = cli.run_sweep(template, 3, [1.0], terms=5000, t_max=10.0).rows[0]
        assert row.valid
        assert row.sum_value.hex() == summation.sum_truncated(template, 5000).hex()

    def test_rows_sorted_by_b(self, tmp_path):
        _, out = self.run_sweep(tmp_path, rng="6.0:0.1:5")  # descending input
        bs = [r[0] for r in read_csv(out)[1]]
        assert bs == sorted(bs)

    def test_degenerate_two_rows(self, tmp_path):
        rc, out = self.run_sweep(tmp_path, rng="1.0:1.5:2")
        assert rc == 0
        assert len(read_csv(out)[1]) == 2

    def test_invalid_rows_flagged_beyond_boundary(self, tmp_path):
        rc, out = self.run_sweep(tmp_path, rng="6.0:7.0:3")  # crosses b* = 6.087
        assert rc == 0
        rows = read_csv(out)[1]
        assert rows[0][4] and not rows[-1][4]
        assert rows[-1][5] == "invalid"

    def test_json_format(self, tmp_path):
        rc, out = self.run_sweep(tmp_path, name="s.json", fmt="json")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["rows"]) == 5 and "b_star" in doc["meta"]

    def test_io_error_exit_3(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "1", "--range", "0.1:1.0:3",
                "--out", str(tmp_path / "no" / "dir" / "x.csv"),
            ]
        )
        assert rc == 3

    def test_count_below_two_exit_1(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "1", "--range", "0.1:1.0:1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1

    def test_vary_out_of_range_exit_2(self, tmp_path):
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "5", "--range", "0.1:1.0:3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 2

    def test_negative_terms_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "1", "--range", "0.1:6.0:3",
                "--terms", "-5", "--out", str(out),
            ]
        )
        assert rc == 2
        assert "terms must be non-negative" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError):
            cli.run_sweep(identity.make_spec(0, [0.5, 1.5], [PI / 16, 1.0]), 1, [1.0], terms=-1)


    @pytest.mark.parametrize("t_max", ["-5", "0", "inf", "nan"])
    def test_bad_t_max_exit_2(self, tmp_path, capsys, t_max):
        # a bad t_max is a flag error for the whole sweep, not a nan in
        # every row's quadrature column
        out = tmp_path / "x.csv"
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "1", "--range", "0.1:6.0:3",
                f"--t-max={t_max}", "--out", str(out),
            ]
        )
        assert rc == 2
        assert "sweep failed: t_max must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError):
            cli.run_sweep(identity.make_spec(0, [0.5, 1.5], [PI / 16, 1.0]), 1, [1.0],
                          t_max=float(t_max))

    def test_terms_beyond_the_cap_exit_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        rc = main(
            [
                "sweep",
                "--nu", "0.5,1.5", "--a", "pi/16,1.0",
                "--vary", "1", "--range", "0.1:6.0:3",
                "--terms", "1000000000000", "--out", str(out),
            ]
        )
        assert rc == 2
        assert "beyond the cap of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("terms", [2.5, float("nan")])
    def test_non_integer_terms_raise(self, terms):
        # not a nan sum in every row
        with pytest.raises(ConfigError, match="terms must be"):
            cli.run_sweep(identity.make_spec(0, [0.5, 1.5], [PI / 16, 1.0]), 1, [1.0],
                          terms=terms)

    @staticmethod
    def _public_values(spec, terms, t_max):
        """The row's sum and quadrature value through the public calls, nan
        where they raise InvalidSpec."""
        try:
            s = summation.sum_power_product(spec.nus, spec.scales, spec.lam, terms)
        except InvalidSpec:
            s = math.nan
        try:
            q = quadrature.integrate(spec, t_max).value
        except InvalidSpec:
            q = math.nan
        return s.hex(), q.hex()

    @pytest.mark.parametrize("nus,k,terms", [
        ((0.5, 1.5), 0, 10),  # the paper's two-, three- and four-factor panels
        ((0.0, 1.0, 2.0), 2, 10),
        ((-1.5, -1.0, 0.5, 0.0), -1, 10),
        ((0.0, 1.0, 2.0), 2, 5000),  # past one 4096-block
        ((0.5, 1.5), -3, 10),  # the t -> 0 limit diverges: no sum, no integral
        ((0.5, 1.5), 2, 10),  # sum(nu) <= 2k - N/2: a sum, but no integral
    ])
    def test_rows_equal_the_public_calls(self, nus, k, terms):
        n_fixed = len(nus) - 1
        for afix in (PI / 16, 3 * PI / 16, 5 * PI / 16):
            template = identity.make_spec(k, nus, [afix] * n_fixed + [1.0])
            b_star = 2 * PI - n_fixed * afix
            bs = [b_star * f for f in (0.02, 0.4, 0.97, 1.0, 1.03, 1.4)]  # past b* too
            table = cli.run_sweep(template, n_fixed, bs, terms=terms, t_max=10.0)
            for b, row in zip(sorted(bs), table.rows):
                spec = identity.make_spec(k, nus, [afix] * n_fixed + [b])
                assert (row.sum_value.hex(), row.quad_value.hex()) == \
                    self._public_values(spec, terms, 10.0), (afix, b)

    def test_one_analysis_and_one_kernel_call_per_factor_per_row(self, monkeypatch):
        calls = {"check_validity": 0, "jv_array": 0, "integrate": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(identity, "check_validity")
        counted(specfun, "jv_array")
        counted(quadrature, "integrate")
        template = identity.make_spec(-1, [-1.5, -1.0, 0.5, 0.0], [3 * PI / 16] * 3 + [1.0])
        row = cli.run_sweep(template, 3, [1.0], terms=10, t_max=10.0).rows[0]
        assert math.isfinite(row.sum_value) and math.isfinite(row.quad_value)
        assert calls == {"check_validity": 1, "jv_array": 4, "integrate": 0}


class TestCompare:
    def test_pass_case(self, capsys):
        rc = main(["compare", "--nu", "0.5,1.5", "--a", "pi/16,1.0", "--terms", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "correction_term" in out and "band_limit_leakage" in out

    def test_even_parity_correction_term_prints_plus_zero(self, capsys):
        # k = 0: the parity sine is sin(0) = +0.0, so the term is +0, never -0
        rc = main(["compare", "--nu", "0.5,1.5", "--a", "pi/16,1.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "correction_term = 0.0000000000000000e+00\n" in out

    def test_rescale_path_passes(self, capsys):
        # slightly above the budget: direct summation invalid, compare goes
        # through the rescale path and still passes
        rc = main(["compare", "--nu", "1.5,1.5", "--a", "3.2,3.2", "--terms", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rescale path" in out
        assert "correction_term = n/a (sum of scales 6.4 must be < 2*pi" in out

    def test_non_finite_correction_term_is_not_printed(self, capsys):
        rc = main(["compare", "--nu=-60.5,62", "--a=1.0,2.0", "--terms", "2000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "correction_term = n/a (correction integral is nan" in out

    def test_cli_cold_spec_sums_the_rescaled_spec(self, capsys):
        # sum(a) = 2*pi * 1.01: compare prints the prefactor times the sum of
        # the rescaled spec, which differs from the raw sum of the original
        spec = identity.make_spec(0, [0.5, 1.5], [0.9817477042468103, 5.368672961742462])
        rc = main(["compare", "--nu=0.5,1.5", "--a=0.9817477042468103,5.368672961742462"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.rstrip().endswith(": PASS")
        sum_value = float(out.split("sum_value = ", 1)[1].split(" ", 1)[0])
        assert sum_value == summation.evaluate(spec, terms=10).value
        raw = summation.sum_power_product(spec.nus, spec.scales, spec.lam, 10)
        assert abs(sum_value - raw) > 1e-4

    def test_invalid_even_after_rescale_exit_2(self, capsys):
        rc = main(["compare", "--nu", "0.0", "--a", "1.0", "--k", "1"])
        assert rc == 2

    def test_negative_terms_names_the_flag(self, capsys):
        rc = main(["compare", "--nu", "0.5,1.5", "--a", "pi/16,1.0", "--terms", "-5"])
        out, err = capsys.readouterr()
        assert rc == 2 and out == ""
        assert err == "invalid spec: terms must be non-negative, got -5\n"

    def test_huge_t_max_is_oracle_failure_exit_2(self, capsys):
        rc = main(["compare", "--nu", "0.5,1.5", "--a", "0.3,1.0", "--t-max=1e300"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "quadrature oracle failed" in err and "quadrature panels" in err

    @pytest.mark.parametrize("t_max", ["inf", "nan", "-5"])
    def test_bad_t_max_is_oracle_failure_exit_2(self, capsys, t_max):
        rc = main(["compare", "--nu", "0.5,1.5", "--a", "0.3,1.0", f"--t-max={t_max}"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "quadrature oracle failed" in err and "internal error" not in err


def test_help_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "besselsum", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "compute" in proc.stdout and "sweep" in proc.stdout


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal is imported inside band_limit_check only: it is most of
    # the cost of a cold import
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import besselsum, sys; assert 'scipy.signal' not in sys.modules"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_compare_leaves_scipy_signal_unloaded():
    # band_limit_check windows with numpy's Kaiser window: a compare process
    # never pays for importing scipy.signal
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; from besselsum.cli import main; "
            "rc = main(['compare', '--nu', '0.5,1.5', '--a', 'pi/16,1.0']); "
            "assert rc == 0 and 'scipy.signal' not in sys.modules")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "band_limit_leakage = " in proc.stdout


def test_console_script_entry_point():
    exe = shutil.which("besselsum")
    if exe is None:
        pytest.skip("console script not on PATH (package not pip-installed)")
    proc = subprocess.run(
        [exe, "compute", "--nu", "0.5", "--a", "1.0", "--terms", "100",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["terms_used"] == 100


def test_unknown_flag_exit_1():
    assert main(["compute", "--nope", "1"]) == 1


def test_internal_error_maps_to_exit_1(monkeypatch, capsys):
    # exit codes are total: an unexpected failure must not leak a traceback
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr("besselsum.cli.summation.evaluate", boom)
    rc = main(["compute", "--nu", "0.5", "--a", "1.0"])
    assert rc == 1
    assert "internal error" in capsys.readouterr().err
