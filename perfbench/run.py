"""Benchmark of descmatch's train, eval and score commands.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval --seed 0 --seconds 8 --trace 0

Each run generates its inputs from --seed, sets them up several times,
repeats the workload's operation for --seconds (at least once), checks
the outputs against the oracles in perfbench/oracles.py and prints one
JSON object as its last line: the end-to-end metrics with --trace 0, the
per-layer metrics of one more traced set-up and operation with --trace 1.
Times are wall seconds rescaled to a reference core speed (speed.py).
Full detail (every timing, check, digest and the machine) goes to
.bench_out/<workload>-seed<n>-trace<t>.json, and the spans of a traced
run to .bench_out/spans-<workload>-seed<n>.jsonl.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_libraries() -> list[dict]:
    """Version string and thread count in force of each loaded OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path), "config": None, "threads": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    threads.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    entry.update(threads=threads(), config=config().decode())
        out.append(entry)
    return out


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "openblas": _blas_libraries(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "descmatch" / "__init__.py").is_file():
        print(f"error: no descmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # pin BLAS to one thread before numpy loads it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out_dir = ROOT / ".bench_out"
    result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                           bool(args.trace), out_dir)
    result["machine"] = machine()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans:
        with open(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))

    section = "per_layer" if args.trace else "end_to_end"
    metrics = result[section]
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        print(f"error: {section} metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    print(f"{stem}: {result['attempted']} operations, {result['failed']} failed, "
          f"checks {sum(c['ok'] for c in result['checks'])}/{len(result['checks'])} passed")
    for c in result["checks"]:
        if not c["ok"]:
            print(f"  FAILED {c['layer']}.{c['name']}: {c['detail']}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(f"detail: {out_dir / (stem + '.json')}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
