#!/usr/bin/env python3
"""Record the check report numbers that bench/run.py verifies against.

    python3 bench/record_reference.py

Runs every check of the ``sweep`` and ``refine`` workloads once with the
reference corpus seed and writes their worst_ratio, fitted_constant and
residual_max to bench/reference.json.  Rerun only when a change is meant to
alter these numbers, and say so in that change.
"""

import contextlib
import io
import json
import shutil
import sys
import warnings

import run


def main() -> int:
    run.load_package()
    from dispersivelab.cli import main as cli_main

    run_dir = run.OUT / "record-reference"
    reference = {}
    try:
        for workload in ("sweep", "refine"):
            reference[workload] = {}
            for op in run.check_rounds(workload, 0, run_dir, {})[0]:
                with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                    warnings.simplefilter("ignore")
                    cli_main(op.argv)
                row = (op.out_dir / "checks.csv").read_text().splitlines()[1].split(",")
                reference[workload][op.kind] = run.report_numbers(row)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
