"""Figure-sweep benchmark of the onebit-mimo toolkit.

    python3 figbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Set-up is timed in several fresh processes
(``setup_s`` is their median); then one fresh worker process runs the
workload's passes for ``--seconds`` (pass times are averaged over them). The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). The line
before it records the environment. Scratch files go to ``.figbench/``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up samples: probe processes and the worker itself; the median drops the
# first probe's bytecode compilation in a fresh checkout
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run, set-up included, ends within this


def _cpu_max() -> str:
    for path, fmt in (
        ("/sys/fs/cgroup/cpu.max", "{}"),
        ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "quota {}"),
    ):
        try:
            return fmt.format(Path(path).read_text().strip())
        except OSError:
            continue
    return "unavailable"


def _environment() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_max": _cpu_max(),
        "loadavg_start": list(os.getloadavg()),
        "env": {
            k: os.environ.get(k)
            for k in ("ONEBIT_MIMO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
    }


def _worker(args, out: Path, extra: list[str], deadline: float) -> dict:
    # the program's thread settings stay at their defaults
    env = {k: v for k, v in os.environ.items() if k != "ONEBIT_MIMO_THREADS"}
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), *extra,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "onebit_mimo" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'onebit_mimo'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = _environment()
    out = ROOT / ".figbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        probes = [_worker(args, out, ["--setup-only"], deadline) for _ in range(SETUP_PROBES - 1)]
        res = _worker(args, out, [], deadline)
        spans = out / "spans.json"
        if spans.exists():
            spans.replace(ROOT / ".figbench" / f"spans-{args.workload}.json")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    probes.append(res)
    env["loadavg_end"] = list(os.getloadavg())
    env["versions"] = res["versions"]

    import_s = statistics.median(p["import_s"] for p in probes)
    validate_s = statistics.median(p["validate_s"] for p in probes)
    setup_s = statistics.median(p["import_s"] + p["validate_s"] for p in probes)
    correct = res["failed"] == 0
    if args.trace:
        layers = {k: statistics.median(m[k] for m in res["layers"]) for k in res["layers"][0]}
        layers["setup.import_s"] = import_s
        layers["cli.validate_config.s"] = validate_s
        layers["mc.serial_wall_s"] = res["serial_wall_s"]
        layers["trace.overhead_frac"] = (
            statistics.median(res["traced_wall_s"]) / statistics.median(res["wall_s"]) - 1.0
        )
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        env["selfcheck"] = res["selfcheck"]
        correct = correct and all(res["selfcheck"].values())
    else:
        # the mean, not the median: the host's slowdowns are level shifts of
        # seconds, and the median jumps between the fast and the slow level
        # as either holds half the run, where the mean moves in proportion
        wall = statistics.fmean(res["wall_s"])
        values = {
            "wall_s": (wall, "s"),
            "units_per_s": (res["units"] / wall, "1/s"),
            "cpu_s": (statistics.fmean(res["cpu_s"]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        env["pass_wall_s"] = res["wall_s"]
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
