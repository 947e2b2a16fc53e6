"""Command-line interface: detect periods, generate fixtures, run benchmarks.

Exit codes: 0 success (including empty detection reports), 1 invalid input
or usage, 2 internal error. Reports are JSON; series files are plain CSV.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .acf import find_peaks, huber_acf
from .detector import DetectorConfig, PeriodReport, _detect
from .series import InvalidInputError, TimeSeries
from .spectral import HybridPeriodogram
from .synthbench import SCENARIOS, SyntheticSpec, generate, run_benchmark

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INTERNAL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for
    # internal failures, so route usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _float(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def read_csv(path: str, column: str | int | None = None) -> TimeSeries:
    """Load one numeric column of a UTF-8 file, with or without a byte-order mark.

    ``column`` selects by zero-based index or by header name (default:
    column 0). By index, the first row is a header when its cell does not
    parse as a float at all. NaN, infinities, and missing cells are rejected
    with the offending 1-based row number.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(handle)) if row]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a UTF-8 text file ({exc.reason})")
    if not rows:
        raise InvalidInputError(f"{path}: file contains no data")

    by_name = column is not None and not str(column).lstrip("-").isdigit()
    first_row = rows[0][1]
    if by_name:
        name = str(column)
        header = [cell.strip() for cell in first_row]
        if name not in header:
            raise InvalidInputError(f"{path}: no column named {name!r} in header")
        idx = header.index(name)
        rows = rows[1:]
    else:
        idx = int(column) if column is not None else 0
        if idx < 0 or idx >= len(first_row):
            raise InvalidInputError(f"{path}: column index {idx} out of range")
        if _float(first_row[idx]) is None:
            rows = rows[1:]  # header row

    values = []
    for line_no, row in rows:
        if idx >= len(row):
            raise InvalidInputError(f"{path}: row {line_no} is missing column {idx}")
        cell = row[idx].strip()
        value = _float(cell)
        if value is None or not math.isfinite(value):
            raise InvalidInputError(f"{path}: row {line_no} is not numeric: {cell!r}")
        values.append(value)
    if not values:
        raise InvalidInputError(f"{path}: no numeric rows found")
    return TimeSeries(np.asarray(values))


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _emit(text: str, output_path: str | None) -> None:
    if output_path:
        _atomic_write(output_path, text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def report_to_dict(report: PeriodReport) -> dict:
    return {
        "periods": [
            {
                "length": round(rec.length, 3),
                "level": rec.level,
                "p_value": rec.p_value,
                "variance_share": rec.variance_share,
                "acf_median_distance": round(rec.length, 3),
            }
            for rec in report.periods
        ],
        "levels_examined": report.levels_examined,
        "degenerate": report.degenerate,
        "config": dataclasses.asdict(report.config),
    }


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    return DetectorConfig(
        hp_lambda=args.hp_lambda,
        zeta=args.zeta,
        fisher_alpha=args.alpha,
        acf_height=args.acf_height,
        share_threshold=args.share_threshold,
        robust_mode=not args.no_robust,
    )


def _dump_diagnostics(
    hybrid: HybridPeriodogram | None, cfg: DetectorConfig, directory: str
) -> None:
    """Per-level periodogram and autocorrelation CSVs for external plotting.

    The periodograms are the detection's own, bins 0..N-1 of one row per
    examined level (none without spectra); a bin's ``robust`` column is 1
    when its power is a Huber fit's. Every row's ACF and peaks come
    from one ``huber_acf`` and one ``find_peaks`` call over the whole
    stack, since the detection takes them only for levels whose g-test
    passed; a degenerate row's ACF is all zeros, with no peaks.
    """
    os.makedirs(directory, exist_ok=True)
    if hybrid is None:
        return
    acfs = huber_acf(hybrid.power)
    peak_lists = find_peaks(acfs, height=cfg.acf_height)
    robust = set(hybrid.bins.tolist())
    for row, level in enumerate(hybrid.levels):
        acf, peaks = acfs[row], set(peak_lists[row])
        path = os.path.join(directory, f"level{level:02d}.csv")
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(["index", "power", "robust", "acf", "acf_peak"])
        for k, power in enumerate(hybrid.power[row, :-1]):
            writer.writerow(
                [
                    k,
                    f"{power:.10g}",
                    int(k in robust),
                    f"{acf[k]:.10g}",
                    int(k in peaks),
                ]
            )
        _atomic_write(path, text.getvalue())


def _cmd_detect(args: argparse.Namespace) -> int:
    series = read_csv(args.input, args.column)
    cfg = _detector_config(args)
    report, hybrid = _detect(series, cfg)
    if args.dump_diagnostics:
        _dump_diagnostics(hybrid, cfg, args.dump_diagnostics)
    _emit(json.dumps(report_to_dict(report), indent=2), args.output)
    return EXIT_OK


def _parse_periods(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InvalidInputError(f"invalid period list: {text!r}")


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        waveform=args.waveform,
        periods=_parse_periods(args.periods),
        length=args.length,
        trend_amplitude=args.trend_amplitude,
        noise_variance=args.noise_var,
        outlier_ratio=args.outlier_ratio,
        outlier_amplitude=args.outlier_amplitude,
        seed=args.seed,
    )
    series = generate(spec)
    lines = ["value"] + [f"{v:.17g}" for v in series.values]
    _emit("\n".join(lines) + "\n", args.output)
    # Ground truth goes to stderr so harnesses can score without reparsing.
    sys.stderr.write(json.dumps({"periods": list(spec.periods)}) + "\n")
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = DetectorConfig(robust_mode=not args.no_robust)
    result = run_benchmark(SCENARIOS[args.scenario], args.runs, cfg, args.tolerance)
    payload = {
        "scenario": args.scenario,
        "runs": args.runs,
        "tolerance": args.tolerance,
        "precision": result.metrics.precision,
        "recall": result.metrics.recall,
        "f1": result.metrics.f1,
        "mean_seconds_per_series": result.mean_seconds_per_series,
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    defaults = DetectorConfig()
    parser = _Parser(prog="multiperiod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="detect periods in a CSV column")
    detect.add_argument("--input", required=True)
    detect.add_argument("--column", default=None, help="column name or zero-based index")
    detect.add_argument("--output", default=None)
    detect.add_argument("--no-robust", action="store_true", help="plain periodogram/ACF path")
    detect.add_argument("--lambda", dest="hp_lambda", type=float,
                        default=defaults.hp_lambda, help="trend smoothing weight")
    detect.add_argument("--zeta", type=float, default=defaults.zeta)
    detect.add_argument("--alpha", type=float, default=defaults.fisher_alpha)
    detect.add_argument("--acf-height", type=float, default=defaults.acf_height)
    detect.add_argument("--share-threshold", type=float, default=defaults.share_threshold)
    detect.add_argument("--dump-diagnostics", default=None, metavar="DIR",
                        help="write per-level periodogram/ACF CSVs here")
    detect.set_defaults(func=_cmd_detect)

    synth = sub.add_parser("synth", help="generate a synthetic series CSV")
    synth.add_argument("--periods", default="20,50,100", help="comma-separated period lengths")
    synth.add_argument("--length", type=int, default=1000)
    synth.add_argument("--waveform", choices=["sin", "square", "triangle"], default="sin")
    synth.add_argument("--noise-var", type=float, default=0.1)
    synth.add_argument("--outlier-ratio", type=float, default=0.01)
    synth.add_argument("--trend-amplitude", type=float, default=10.0)
    synth.add_argument("--outlier-amplitude", type=float, default=5.0)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output", default=None)
    synth.set_defaults(func=_cmd_synth)

    bench = sub.add_parser("bench", help="score a named scenario over seeds 0..runs-1")
    bench.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    bench.add_argument("--runs", type=int, default=100)
    bench.add_argument("--tolerance", type=float, default=0.02)
    bench.add_argument("--no-robust", action="store_true")
    bench.add_argument("--output", default=None)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidInputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
