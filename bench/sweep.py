"""One-shot scaling sweep of the extension engine (reported, not gated).

Times ``extend_semi_phi`` and, separately, ``phi_extension_obstruction`` on
semi-branch problems over ``BlockAlgebra((n, n))`` with m = k = 4, for
dim E in {8, 18, 32, 48, 72}.  Each size runs in its own child process so
each gets its own peak RSS.  Prints a table and writes ``bench/out/sweep.json``
with the run record.

Usage: python3 bench/sweep.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run  # pins the BLAS threads before numpy loads

# dim E -> (block size n, E column dims per block, F column dims per block)
SIZES = {
    8: (2, (2, 2), (1, 1)),
    18: (3, (3, 3), (2, 1)),
    32: (4, (4, 4), (2, 2)),
    48: (6, (4, 4), (2, 2)),
    72: (6, (6, 6), (3, 3)),
}
REPEATS_UP_TO_48 = 3  # dim 72 runs once: one call takes seconds and ~0.9 GB


def child(dim_e: int, seed: int) -> dict:
    import resource

    run._import_library()
    import numpy as np

    import checks
    import problems as P
    import semiphi

    n, e_cols, f_cols = SIZES[dim_e]
    pr = P.make_problem(np.random.default_rng([seed, dim_e]), (n, n), e_cols, f_cols, sum(e_cols) + 2, 4, 4, 2, False)
    extend_s, obstruction_s = [], []
    for _ in range(REPEATS_UP_TO_48 if dim_e <= 48 else 1):
        phi, e = P.cp_map(pr), P.module(pr, pr.e_basis)
        start = time.perf_counter()
        res = semiphi.extend_semi_phi(P.module_map(pr, pr.semi), e, phi)
        extend_s.append(time.perf_counter() - start)
        checks.extension(pr, pr.semi, np.array(res.phi_prime.values))
        phi, e, f = P.cp_map(pr), P.module(pr, pr.e_basis), P.module(pr, pr.f_basis)
        start = time.perf_counter()
        semiphi.phi_extension_obstruction(phi, f, e)
        obstruction_s.append(time.perf_counter() - start)
    return {
        "dim_e": dim_e,
        "dim_f": len(pr.f_basis),
        "q": pr.q,
        "extend_s": statistics.median(extend_s),
        "obstruction_s": statistics.median(obstruction_s),
        "repeats": len(extend_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", type=int, choices=sorted(SIZES), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        sys.path.insert(0, run.BENCH_DIR)
        print(json.dumps(child(args.child, args.seed)))
        return 0
    rows = []
    print(f"{'dim E':>6} {'dim F':>6} {'q':>3} {'extend s':>10} {'obstruction s':>14} {'peak RSS MB':>12}")
    for dim_e in SIZES:
        cmd = [sys.executable, os.path.abspath(__file__), "--child", str(dim_e), "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        row = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
        print(f"{row['dim_e']:6d} {row['dim_f']:6d} {row['q']:3d} {row['extend_s']:10.3f} "
              f"{row['obstruction_s']:14.3f} {row['peak_rss_mb']:12.1f}", flush=True)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "sweep.json"), "w") as out:
        json.dump({"record": run.run_record(kind="sweep", seed=args.seed), "rows": rows}, out, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
