"""Write the reference rows the `scan` workload checks its reference seed against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the reference seed's first scan pass (the exact thinned grid, every
scenario) and writes one row per op, in full precision, to
perfbench/reference/scan_seed0.csv.  The rows were recorded at the
commit that defined the benchmark; regenerate them only when a change
to the program is meant to change its rates.
"""

from __future__ import annotations

import csv

from workloads import REFERENCE_HEADER, REFERENCE_ROWS, reference_rows

COMMAND = "PYTHONPATH=src python3 perfbench/make_reference.py"


def main() -> None:
    REFERENCE_ROWS.parent.mkdir(exist_ok=True)
    with open(REFERENCE_ROWS, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# regenerate with: {COMMAND}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REFERENCE_HEADER)
        writer.writerows(reference_rows())


if __name__ == "__main__":
    main()
