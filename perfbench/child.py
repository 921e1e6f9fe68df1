"""One measured process: set up talbotlau, run one CLI command, report.

run.py starts one of these per command run, so that set-up time and peak
RSS belong to that run alone:

    python3 perfbench/child.py --config CFG --command fringe --out OUT.csv [--trace]
    python3 perfbench/child.py --config CFG --setup-only

Set-up is importing talbotlau and parsing and building the config; the
run is ``talbotlau.cli.main`` from then until the CSV is written. Prints
one JSON line on stdout. Times are ``time.monotonic()`` readings, which
the parent compares with its own clock to include interpreter start-up.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from talbotlau import cli

    # measure the checkout's source, never an installed copy
    if not pathlib.Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"talbotlau was imported from {cli.__file__}, not from {ROOT / 'src'}")

    with open(args.config, "r", encoding="utf-8") as fh:
        cli.build_beamline(cli.parse_config(fh.read()))
    report = {"setup_end": time.monotonic()}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    cli_argv = [args.command, "--config", args.config, "--out", args.out]
    cpu0 = _cpu_s()
    if args.trace:
        import layers

        tracer = layers.Tracer()
        with tracer.installed():
            start = time.perf_counter()
            status = cli.main(cli_argv)
            run_s = time.perf_counter() - start
        report["layers"] = tracer.metrics()
        report["self_time_sum_s"] = tracer.self_time_sum()
    else:
        start = time.perf_counter()
        status = cli.main(cli_argv)
        run_s = time.perf_counter() - start
    if status != 0:
        return status
    report["run_s"] = run_s
    report["cpu_s"] = _cpu_s() - cpu0
    # ru_maxrss is in KiB on Linux
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
