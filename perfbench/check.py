"""Output checks for benchmark runs, and the stored reference outputs.

Every run's CSV must be byte-identical to the first run of the same
(workload, seed), hold only finite numbers, keep throughput and contrast in
[0, 1], and match reference.json within ``RTOL``. References are stored
for ``DEFAULT_SEED``; at other seeds only the columns that do not depend on
the seed are compared.

``RTOL`` is 10 units in the last of the 9 significant digits the CLI
prints: loose enough for a reordered floating-point sum, tight enough
that a change of physics (halving the FFT padding moves sweep-narrow
contrast by up to 4% relative) fails.

Regenerate the references, only when the physics is meant to change:

    python3 perfbench/check.py --write
"""

import json
import math
import pathlib
import sys

from workloads import DEFAULT_SEED, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
RTOL = 1e-7
UNIT_INTERVAL_COLUMNS = ("throughput", "contrast")


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse(text: str):
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        raise ValueError("CSV must have a header, at least one row and a final LF")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:-1]]
    if any(len(row) != len(header) for row in rows):
        raise ValueError("CSV rows differ in length from the header")
    return header, rows


def check_csv(text: str, workload_name: str, seed: int, reference: dict | None) -> list[str]:
    """Problems found in one run's CSV; empty when it passes."""
    try:
        header, rows = _parse(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for j, name in enumerate(header):
        values = [row[j] for row in rows]
        if not all(math.isfinite(v) for v in values):
            problems.append(f"column {name}: non-finite value")
        elif name in UNIT_INTERVAL_COLUMNS and not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"column {name}: value outside [0, 1]")
    if reference is None:
        return problems
    ref_header, ref_rows = _parse(reference["csv"])
    if header != ref_header or len(rows) != len(ref_rows):
        return problems + [f"header or row count differs from reference ({header}, {len(rows)} rows)"]
    seeded = WORKLOADS[workload_name].seeded_columns if seed != reference["seed"] else ()
    for j, name in enumerate(header):
        if name in seeded:
            continue
        worst = max(_rel_diff(row[j], ref[j]) for row, ref in zip(rows, ref_rows))
        if worst > RTOL:
            problems.append(f"column {name}: differs from reference by {worst:.3g} relative (limit {RTOL:g})")
    return problems


def _rel_diff(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref else math.inf


def write_reference() -> None:
    """Run every workload once at DEFAULT_SEED and store its CSV."""
    import run

    out = {name: {"seed": DEFAULT_SEED, "csv": run.reference_csv(name, DEFAULT_SEED)} for name in WORKLOADS}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 perfbench/check.py --write")
    write_reference()
