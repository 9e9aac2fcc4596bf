"""Write the reference CSVs the output check compares against.

    python3 figbench/make_refs.py

Runs one pass of every workload at ``DEFAULT_SEED`` and stores each CSV in
``refs/<workload>/``. Run it only on a commit whose outputs are the
accepted ones; the committed references came from the program as it was
when this benchmark was added. Also prints the allocation solves of one
design pass (the design work unit).
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import worker
from tracing import Tracer, installed, summarize
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    out = worker.ROOT / ".figbench" / "make_refs"
    try:
        for name in WORKLOADS:
            specs, _, _ = worker.setup(worker.write_configs(name, DEFAULT_SEED, out / name))
            p = worker.run_pass(specs)
            tracer = Tracer()
            with installed(tracer):
                worker.run_pass(specs)
            dest = Path(__file__).resolve().parent / "refs" / name
            dest.mkdir(parents=True, exist_ok=True)
            for fig, text in p["csvs"].items():
                (dest / f"{fig}.csv").write_text(text, encoding="utf-8")
            solves = summarize(tracer)["allocation.optimize.calls"]
            print(f"{name}: {len(p['csvs'])} CSVs, {solves} allocation solves per pass")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
