#!/usr/bin/env python3
"""Wall clock and peak memory of ``pgee simulate`` in fresh interpreters.

Each run is ``python3 -m pgee.cli simulate`` on a grid config (by default
the two-scenario grid of ``perfbench/run.py``) in a new interpreter, so a
time includes interpreter start and imports.  With several checkouts the
runs alternate between them, so that a drifting machine speed falls on
both.  For every checkout, replication count and worker count it prints
the median, the lowest and the highest wall clock over all seeds and
runs, and the largest peak resident memory of a run, as reported for the
``simulate`` process and the workers it waited for.

Run from the repository root:

    python3 scripts/simulate_wall.py --checkout . --checkout ../parent \\
        --reps 1000 200 --workers 1 2 --seeds 1 2 3 --runs 3
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _grid_config() -> str:
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GRID_CONFIG


def run_once(checkout: Path, config: Path, reps: int, workers: int, seed: int, out: Path) -> tuple:
    """Wall seconds and peak RSS (MB) of one ``pgee simulate`` run."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    argv = [sys.executable, "-m", "pgee.cli", "simulate", "--config", str(config),
            "--reps", str(reps), "--seed", str(seed), "--workers", str(workers),
            "--min-converged", "10", "--out-dir", str(out)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{checkout}: pgee simulate exited {status}")
    return wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", action="append", type=Path, required=True)
    parser.add_argument("--config", type=Path, help="grid config (default: the perfbench grid)")
    parser.add_argument("--reps", type=int, nargs="+", default=[1000])
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--runs", type=int, default=3, help="runs per seed")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkout]
    with tempfile.TemporaryDirectory() as tmp:
        config = args.config or Path(tmp) / "grid.cfg"
        if args.config is None:
            config.write_text(_grid_config(), encoding="utf-8")
        for reps in args.reps:
            for workers in args.workers:
                walls = {c: [] for c in checkouts}
                rss = {c: 0.0 for c in checkouts}
                turn = 0
                for seed in args.seeds:
                    for _ in range(args.runs):
                        order = checkouts if turn % 2 == 0 else checkouts[::-1]
                        turn += 1
                        for c in order:
                            wall, peak = run_once(c, config, reps, workers, seed, Path(tmp) / "out")
                            walls[c].append(wall)
                            rss[c] = max(rss[c], peak)
                for c in checkouts:
                    w = walls[c]
                    print(f"reps={reps} workers={workers} {c}: median {statistics.median(w):.2f} s"
                          f" [{min(w):.2f}, {max(w):.2f}] over {len(w)} runs,"
                          f" peak RSS {rss[c]:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
