"""talbotlau benchmark: CLI fringe-scan workloads measured end to end.

    python3 perfbench/run.py --workload fringe-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client runs in a closed loop: each run is one ``talbotlau`` CLI
command in its own process (child.py), and the next starts only when the
last has finished. Runs repeat until ``--seconds`` have passed, with at
least two so that repeats can be compared byte for byte. One set-up-only
process first checks that talbotlau imports and warms the bytecode cache;
more are added after the runs until there are ``SETUP_SAMPLES`` set-up
times. Every run's CSV is checked (check.py); a run that fails counts in
``failed``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over runs). ``--trace 1`` alternates untraced and traced runs and reports
the per-layer metrics (layers.py), whose times are medians over the traced
runs. A human summary, with sizes and the environment, precedes the final
JSON line; the full record goes to ``.perfbench_out/`` in the checkout.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from importlib import metadata

from check import check_csv, load_reference
from workloads import DEFAULT_SEED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 11
MIN_RUNS = 2
# one invocation must end within 180 s; stop starting runs well before
HARD_LIMIT_S = 160.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {key: [(m["name"], m["unit"]) for m in spec[key]] for key in ("end_to_end", "per_layer")}


def environment() -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def _spawn(args, timeout):
    """Run child.py once; returns (start time, report or None, error text)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return start, None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return start, None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return start, json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return start, None, f"unreadable report: {proc.stdout[-200:]!r}"


def measure(name, seed, seconds, trace, tiny=False, setup_samples=SETUP_SAMPLES) -> dict:
    """Run one workload for ``seconds`` and return its full record."""
    workload = WORKLOADS[name]
    reference = None if tiny else load_reference()[name]
    env = environment()
    began = time.monotonic()
    deadline = began + HARD_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        config = pathlib.Path(tmp) / "config.ini"
        config.write_text(workload.config_text(seed, tiny), encoding="utf-8")
        setup_s = []

        def probe():
            start, report, error = _spawn(["--config", str(config), "--setup-only"], timeout=60)
            if report is None:
                raise BenchError(f"set-up failed: {error}")
            return report["setup_end"] - start

        probe()
        runs = []
        first_csv = None
        longest = 0.0
        while True:
            traced = bool(trace) and len(runs) % 2 == 1
            out = pathlib.Path(tmp) / f"run{len(runs)}.csv"
            args = ["--config", str(config), "--command", workload.command, "--out", str(out)]
            timeout = max(10.0, deadline + 10.0 - time.monotonic())
            start, report, error = _spawn(args + (["--trace"] if traced else []), timeout)
            longest = max(longest, time.monotonic() - start)
            run = {"traced": traced, "completed": report is not None, "problems": [error] if report is None else []}
            if report is not None:
                setup_s.append(report["setup_end"] - start)
                run.update({k: report[k] for k in ("run_s", "cpu_s", "peak_rss_mb")})
                if traced:
                    run["layers"] = report["layers"]
                    run["self_time_sum_s"] = report["self_time_sum_s"]
                text = out.read_text(encoding="utf-8")
                run["problems"] = check_csv(text, name, seed, reference)
                if first_csv is None:
                    first_csv = text
                elif text != first_csv:
                    run["problems"].append("CSV bytes differ from the first run of this (workload, seed)")
            runs.append(run)
            now = time.monotonic()
            if len(runs) >= MIN_RUNS and now - began >= seconds:
                break
            if len(runs) >= MIN_RUNS and now + 1.5 * longest > deadline:
                break
        while len(setup_s) < setup_samples:
            setup_s.append(probe())
    return _summarize(name, seed, trace, tiny, env, workload.sizes(tiny), setup_s, runs)


def _summarize(name, seed, trace, tiny, env, sizes, setup_s, runs) -> dict:
    # a run with wrong output still has timings; only a crashed run has none
    plain = [r for r in runs if not r["traced"] and r["completed"]]
    traced = [r for r in runs if r["traced"] and r["completed"]]
    if not plain or (trace and not traced):
        problems = "; ".join(p for r in runs for p in r["problems"])
        raise BenchError(f"{name}: no run completed ({problems})")
    e2e = {
        "run_s": statistics.median(r["run_s"] for r in plain),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    layers = {}
    if trace:
        for key in traced[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in traced)
        layers["run.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        overhead = statistics.median(r["run_s"] for r in traced) - e2e["run_s"]
        layers["run.trace_overhead_s"] = overhead
        layers["workload.offsets"] = sizes["offsets"]
        layers["workload.energies"] = sizes["energies"]
        # self times partition the traced wall time; allow the tracing cost
        for r in traced:
            gap = abs(r["self_time_sum_s"] - r["run_s"])
            if gap > abs(overhead) + 1e-3:
                r["problems"].append(f"layer self times miss the traced wall time by {gap:.4f} s")
    failed = sum(1 for r in runs if r["problems"])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "tiny": tiny,
        "environment": env,
        "sizes": sizes,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "setup_samples": len(setup_s),
        "end_to_end": e2e,
        "per_layer": layers,
        "runs": runs,
        "setup_s_samples": setup_s,
    }


def result_line(record: dict, declared: dict) -> dict:
    """The final JSON line: the declared metrics of this mode only."""
    kind, values = ("per_layer", record["per_layer"]) if record["trace"] else ("end_to_end", record["end_to_end"])
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in declared[kind]},
    }


def print_summary(record: dict, declared: dict) -> None:
    env = record["environment"]
    load = " ".join(f"{x:.2f}" for x in env["loadavg_start"])
    print(
        f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
        f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
        f"nproc {env['nproc']}  load {load}"
    )
    print("  sizes: " + "  ".join(f"{k} {v}" for k, v in record["sizes"].items()))
    plain = [r for r in record["runs"] if not r["traced"] and r["completed"]]
    for metric, unit in declared["end_to_end"]:
        value = record["end_to_end"][metric]
        n = record["setup_samples"] if metric == "setup_s" else len(plain)
        print(f"  {metric:<12} {value:12.6g} {unit:<5} median of {n}")
    print(
        f"  {'failed_frac':<12} {record['failed_frac']:12.6g} {'1':<5} "
        f"{record['failed']} failed of {record['attempted']} runs"
    )
    for r in record["runs"]:
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")
    if record["trace"]:
        for metric, unit in declared["per_layer"]:
            print(f"  {metric:<40} {record['per_layer'][metric]:14.6g} {unit}")


def reference_csv(name: str, seed: int) -> str:
    """One untraced run's CSV, for regenerating reference.json."""
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        config = pathlib.Path(tmp) / "config.ini"
        config.write_text(WORKLOADS[name].config_text(seed), encoding="utf-8")
        out = pathlib.Path(tmp) / "out.csv"
        args = ["--config", str(config), "--command", WORKLOADS[name].command, "--out", str(out)]
        _, report, error = _spawn(args, timeout=170)
        if report is None:
            raise BenchError(error)
        return out.read_text(encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        declared = declared_metrics()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = []
        for name in names:
            record = measure(name, args.seed, args.seconds, args.trace)
            with open(OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
            print_summary(record, declared)
            records.append(record)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 1
    if len(records) == 1:
        line = result_line(records[0], declared)
    else:
        lines = {r["workload"]: result_line(r, declared) for r in records}
        line = {
            "correct": all(x["correct"] for x in lines.values()),
            "attempted": sum(x["attempted"] for x in lines.values()),
            "failed": sum(x["failed"] for x in lines.values()),
            "metrics": {f"{w}.{k}": v for w, x in lines.items() for k, v in x["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
