"""Golden reports: detection output frozen bit for bit.

Every ``SCENARIOS`` preset, seeds 0-19, in robust and plain mode, is detected
and compared with ``tests/golden/reports.json`` by exact float equality. The
per-level ``--dump-diagnostics`` CSVs of ``mild`` and ``severe`` seed 0 are
compared by sha256, and so are the Huber fit's bits, iterations and
convergence flags over every bin of a set of series (``test_fit_matches_lock``).
A change meant to alter output rewrites the fixture with

    PYTHONPATH=src python tests/test_golden.py

and ``FIT_LOCK`` with the digest that prints, and says so in its
description; any other change must leave both untouched.
No detection output goes through a BLAS product or a LAPACK solve, so the
fixture holds whichever OpenBLAS kernel numpy runs.
"""

import hashlib
import json
import pathlib
import tempfile
from dataclasses import replace

import numpy as np
import pytest

from multiperiod.cli import main
from multiperiod.detector import DetectorConfig, robust_period
from multiperiod.preprocess import preprocess
from multiperiod.spectral import huber_fit, zero_pad
from multiperiod.synthbench import SCENARIOS, generate

FIXTURE = pathlib.Path(__file__).parent / "golden" / "reports.json"
SEEDS = range(20)
MODES = {"robust": True, "plain": False}
DIAGNOSTIC_SCENARIOS = ("mild", "severe")
FIT_LOCK = "de7996ede2b47e6b9cbf1fb21579fdf5e661b2d5bb99cada3ed6a620d43f6533"


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


def fit_digest() -> str:
    """sha256 of ``huber_fit``'s beta, iterations and converged over a set of fits.

    Every bin 1..N-1 of each preset's padded, preprocessed seeds 0-2 at zeta
    0.5, 1 and 2, then bins 1..(n-1)//2 of +-1 square waves (+1 on the first
    half of each period) less their mean at zeta 0.5, some of whose bins stop
    at the step limit unconverged.
    """
    digest = hashlib.sha256()

    def add(x, ks, zeta):
        for array in huber_fit(x, ks, zeta):
            digest.update(array.tobytes())

    for scenario in SCENARIOS:
        for seed in range(3):
            series = preprocess(generate(replace(SCENARIOS[scenario], seed=seed)))
            x = zero_pad(series.values)
            for zeta in (0.5, 1.0, 2.0):
                add(x, np.arange(1, x.size // 2), zeta)
    for n in (64, 100, 128, 250, 256, 1000):
        for period in (4, 8, 10, 16, 20, 50):
            if 2 * period <= n:
                x = np.where(np.arange(n) % period < period / 2, 1.0, -1.0)
                add(x - x.mean(), np.arange(1, (n - 1) // 2 + 1), 0.5)
    return digest.hexdigest()


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


def test_fit_matches_lock():
    assert fit_digest() == FIT_LOCK


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
    print(f"FIT_LOCK = {fit_digest()!r}")


if __name__ == "__main__":
    regenerate()
