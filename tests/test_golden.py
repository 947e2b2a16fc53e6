"""Golden reports: detection output frozen bit for bit.

Every ``SCENARIOS`` preset, seeds 0-19, in robust and plain mode, is detected
and compared with ``tests/golden/reports.json`` by exact float equality. The
per-level ``--dump-diagnostics`` CSVs of ``mild`` and ``severe`` seed 0 are
compared by sha256. A change meant to alter output rewrites the fixture with

    PYTHONPATH=src python tests/test_golden.py

and says so in its description; any other change must leave it untouched.
No detection output goes through a BLAS product or a LAPACK solve, so the
fixture holds whichever OpenBLAS kernel numpy runs.
"""

import hashlib
import json
import pathlib
import tempfile
from dataclasses import replace

import pytest

from multiperiod.cli import main
from multiperiod.detector import DetectorConfig, robust_period
from multiperiod.synthbench import SCENARIOS, generate

FIXTURE = pathlib.Path(__file__).parent / "golden" / "reports.json"
SEEDS = range(20)
MODES = {"robust": True, "plain": False}
DIAGNOSTIC_SCENARIOS = ("mild", "severe")


def scenario_reports(scenario: str, mode: str) -> list[dict]:
    """Exact report fields for each seed of one scenario in one mode."""
    cfg = DetectorConfig(robust_mode=MODES[mode])
    cases = []
    for seed in SEEDS:
        report = robust_period(generate(replace(SCENARIOS[scenario], seed=seed)), cfg)
        periods = [
            {
                "length": rec.length,
                "level": rec.level,
                "p_value": rec.p_value,
                "variance_share": rec.variance_share,
            }
            for rec in report.periods
        ]
        cases.append(
            {
                "periods": periods,
                "levels_examined": report.levels_examined,
                "degenerate": report.degenerate,
            }
        )
    return cases


def diagnostic_digests(scenario: str, mode: str, directory: pathlib.Path) -> dict:
    """sha256 of each CSV that ``detect --dump-diagnostics`` writes for seed 0."""
    series = generate(replace(SCENARIOS[scenario], seed=0))
    source = directory / "series.csv"
    source.write_text("value\n" + "".join(f"{v:.17g}\n" for v in series.values))
    dump = directory / "diagnostics"
    argv = ["detect", "--input", str(source), "--output", str(directory / "report.json"),
            "--dump-diagnostics", str(dump)]
    if not MODES[mode]:
        argv.append("--no-robust")
    assert main(argv) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(dump.iterdir())}


def _key(scenario: str, mode: str) -> str:
    return f"{scenario}/{mode}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_reports_match_golden(golden, scenario, mode):
    assert scenario_reports(scenario, mode) == golden["reports"][_key(scenario, mode)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scenario", DIAGNOSTIC_SCENARIOS)
def test_dump_diagnostics_match_golden(golden, tmp_path, scenario, mode):
    digests = diagnostic_digests(scenario, mode, tmp_path)
    assert digests
    assert digests == golden["diagnostics"][_key(scenario, mode)]


def regenerate() -> None:
    reports = {_key(s, m): scenario_reports(s, m) for s in SCENARIOS for m in MODES}
    diagnostics = {}
    for scenario in DIAGNOSTIC_SCENARIOS:
        for mode in MODES:
            with tempfile.TemporaryDirectory() as tmp:
                diagnostics[_key(scenario, mode)] = diagnostic_digests(
                    scenario, mode, pathlib.Path(tmp)
                )
    FIXTURE.parent.mkdir(exist_ok=True)
    text = json.dumps({"reports": reports, "diagnostics": diagnostics}, indent=1)
    FIXTURE.write_text(text + "\n")


if __name__ == "__main__":
    regenerate()
