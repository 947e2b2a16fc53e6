import json
import os
import subprocess
import sys

import numpy as np
import pytest

from multiperiod import spectral
from multiperiod.cli import main, read_csv
from multiperiod.series import InvalidInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReadCsv:
    def test_plain_column(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1\n2\n3\n")
        series = read_csv(str(path))
        np.testing.assert_array_equal(series.values, [1.0, 2.0, 3.0])

    def test_named_column_skips_header(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("value\n1\n2\n")
        series = read_csv(str(path), "value")
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_header_autodetected_for_index_column(self, tmp_path):
        path = tmp_path / "auto.csv"
        path.write_text("reading,other\n1,9\n2,9\n")
        series = read_csv(str(path), 0)
        np.testing.assert_array_equal(series.values, [1.0, 2.0])

    def test_second_column_by_index(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("1,10\n2,20\n")
        series = read_csv(str(path), 1)
        np.testing.assert_array_equal(series.values, [10.0, 20.0])

    def test_bad_cell_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\n2\nabc\n4\n")
        with pytest.raises(InvalidInputError, match="row 3"):
            read_csv(str(path))

    def test_rejects_nan_cells(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1\nnan\n3\n")
        with pytest.raises(InvalidInputError, match="row 2"):
            read_csv(str(path))

    def test_missing_column_name(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(InvalidInputError, match="no column named"):
            read_csv(str(path), "c")

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path):
        path = tmp_path / "bom.csv"
        values = np.arange(100.0)
        path.write_text("".join(f"{v}\n" for v in values), encoding="utf-8-sig")
        np.testing.assert_array_equal(read_csv(str(path)).values, values)

    def test_byte_order_mark_before_a_header_name(self, tmp_path):
        path = tmp_path / "bom_header.csv"
        path.write_text("value\n1\n2\n", encoding="utf-8-sig")
        np.testing.assert_array_equal(read_csv(str(path), "value").values, [1.0, 2.0])

    def test_file_that_is_not_utf8_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"caf\xe9\n1\n2\n")
        code, _, err = run_cli(capsys, "detect", "--input", str(path))
        assert code == 1
        assert str(path) in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_first_row_is_not_a_header(self, tmp_path, cell, capsys):
        path = tmp_path / "first.csv"
        path.write_text(f"{cell}\n" + "".join(f"{v}\n" for v in range(1, 100)))
        with pytest.raises(InvalidInputError, match="row 1"):
            read_csv(str(path))
        code, _, err = run_cli(capsys, "detect", "--input", str(path))
        assert code == 1 and "row 1" in err


class TestSynthCommand:
    def test_writes_csv_and_truth(self, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code, _, err = run_cli(
            capsys, "synth", "--periods", "20,50,100", "--length", "1000",
            "--seed", "7", "--output", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value"
        assert len(lines) == 1001
        truth = json.loads(err.strip().splitlines()[-1])
        assert truth["periods"] == [20, 50, 100]

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["synth", "--periods", "20", "--length", "200", "--seed", "3"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        capsys.readouterr()
        assert a.read_text() == b.read_text()

    def test_invalid_spec_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--periods", "20", "--length", "10")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--noise-var", "nan"), ("--noise-var", "inf"), ("--trend-amplitude", "nan")],
    )
    def test_non_finite_spec_exits_1(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "synth", flag, value)
        assert code == 1
        assert out == ""
        assert "must be finite" in err


@pytest.fixture(scope="module")
def three_period_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "three.csv"
    assert main(["synth", "--periods", "20,50,100", "--length", "1000",
                 "--seed", "0", "--output", str(path)]) == 0
    return path


class TestDetectCommand:
    def test_detects_three_periods(self, three_period_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "detect", "--input", str(three_period_csv),
            "--column", "value", "--output", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert {"periods", "levels_examined", "degenerate", "config"} <= report.keys()
        lengths = sorted(p["length"] for p in report["periods"])
        assert len(lengths) == 3
        for got, want in zip(lengths, (20.0, 50.0, 100.0)):
            assert abs(got - want) <= 0.02 * want
        record = report["periods"][0]
        assert {"length", "level", "p_value", "variance_share", "acf_median_distance"} <= record.keys()

    def test_constant_series_degenerate(self, tmp_path, capsys):
        path = tmp_path / "const.csv"
        path.write_text("\n".join(["5.0"] * 100) + "\n")
        code, out, _ = run_cli(capsys, "detect", "--input", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["degenerate"] is True
        assert report["periods"] == []

    def test_constant_series_dumps_nothing(self, tmp_path, capsys):
        # a degenerate series has no spectra: the directory is made and stays empty
        path = tmp_path / "const.csv"
        path.write_text("\n".join(["5.0"] * 100) + "\n")
        diag = tmp_path / "diag"
        code, out, _ = run_cli(
            capsys, "detect", "--input", str(path), "--dump-diagnostics", str(diag)
        )
        assert code == 0
        assert json.loads(out)["degenerate"] is True
        assert diag.is_dir() and os.listdir(diag) == []

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "detect", "--input", "/nonexistent/x.csv")
        assert code == 1
        assert err.strip()

    def test_usage_error_exits_1(self, capsys):
        code, _, _ = run_cli(capsys, "detect")  # missing --input
        assert code == 1

    def test_internal_error_exits_2(self, three_period_csv, capsys, monkeypatch):
        import multiperiod.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cli_module, "_detect", boom)
        code, _, err = run_cli(capsys, "detect", "--input", str(three_period_csv))
        assert code == 2
        assert "internal error" in err

    def test_dump_diagnostics(self, three_period_csv, tmp_path, capsys):
        diag = tmp_path / "diag"
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "detect", "--input", str(three_period_csv),
            "--output", str(out), "--dump-diagnostics", str(diag),
        )
        assert code == 0
        files = sorted(os.listdir(diag))
        assert files, "expected per-level diagnostic CSVs"
        header = (diag / files[0]).read_text().splitlines()[0]
        assert header == "index,power,robust,acf,acf_peak"

    @pytest.mark.parametrize("robust", [True, False])
    def test_dump_fits_each_level_once(self, three_period_csv, tmp_path, capsys,
                                       monkeypatch, robust):
        fits, spectra = [], []
        fit = spectral.huber_periodogram

        def counted(*args, **kwargs):
            fits.append(args[2])
            spectra.append(fit(*args, **kwargs))
            return spectra[-1]

        # Count the fits through every module that holds the function.
        for name, module in list(sys.modules.items()):
            held = getattr(module, "huber_periodogram", None)
            if name.startswith("multiperiod") and held is fit:
                monkeypatch.setattr(module, "huber_periodogram", counted)
        diag = tmp_path / "diag"
        argv = ["detect", "--input", str(three_period_csv), "--dump-diagnostics", str(diag)]
        code, out, _ = run_cli(capsys, *argv, *([] if robust else ["--no-robust"]))
        assert code == 0
        examined = json.loads(out)["levels_examined"]
        assert examined > 0
        # one call weights the one spectrum for every examined level
        assert len(fits) == 1 and len(fits[0]) == examined
        assert sorted(os.listdir(diag)) == sorted(f"level{j:02d}.csv" for j in fits[0])
        # the robust column marks the fitted bins: some in robust mode, none in plain
        fitted = set(spectra[0].bins.tolist())
        assert bool(fitted) == robust
        rows = (diag / os.listdir(diag)[0]).read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows] == [str(int(k in fitted)) for k in range(1000)]

    @pytest.mark.parametrize(
        "flag, value", [("--lambda", "nan"), ("--lambda", "inf"), ("--zeta", "nan")]
    )
    def test_non_finite_setting_exits_1(self, three_period_csv, capsys, flag, value):
        code, _, err = run_cli(capsys, "detect", "--input", str(three_period_csv), flag, value)
        assert code == 1
        assert "internal error" not in err

    def test_no_robust_flag(self, three_period_csv, capsys):
        code, out, _ = run_cli(
            capsys, "detect", "--input", str(three_period_csv), "--no-robust",
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["robust_mode"] is False
        assert len(report["periods"]) == 3

    def test_config_defaults_echoed(self, three_period_csv, capsys):
        code, out, _ = run_cli(capsys, "detect", "--input", str(three_period_csv))
        assert code == 0
        config = json.loads(out)["config"]
        assert config == {
            "hp_lambda": 1e6,
            "wavelet_order": 4,
            "share_threshold": 0.05,
            "zeta": 1.0,
            "fisher_alpha": 1e-2,
            "acf_height": 0.5,
            "robust_mode": True,
        }


class TestBenchCommand:
    def test_named_scenario_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code, _, _ = run_cli(
            capsys, "bench", "--scenario", "mild", "--runs", "2",
            "--tolerance", "0.02", "--output", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert {"scenario", "runs", "tolerance", "precision", "recall", "f1",
                "mean_seconds_per_series"} <= payload.keys()
        assert payload["runs"] == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_exits_1(self, capsys, value):
        code, out, err = run_cli(
            capsys, "bench", "--scenario", "mild", "--runs", "1", "--tolerance", value,
        )
        assert code == 1
        assert out == ""
        assert "tolerance" in err

    def test_unknown_scenario_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--scenario", "nope", "--runs", "1")
        assert code == 1
        assert "unknown scenario" in err


# Imports the package and its CLI and detects one series each way, then
# prints every scipy module the interpreter has loaded.
NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import multiperiod
import multiperiod.cli
from multiperiod import DetectorConfig, TimeSeries, robust_period
t = np.arange(512)
series = TimeSeries(np.sin(2 * np.pi * t / 24) + 0.3 * np.random.default_rng(0).normal(size=512))
for robust in (True, False):
    assert robust_period(series, DetectorConfig(robust_mode=robust)).periods
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_runtime_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
