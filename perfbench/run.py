"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload eval-mixed --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout: the program under test is imported
from ``src/``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the workload with timing proxies and prints the per-layer metrics,
with the attribution table on stderr.  The last stdout line is the
result; the line before it holds the environment and workload facts.
Temporary files live under ``.perfbench/`` and are removed on exit, except
``.perfbench/results/``, which keeps each run's full record.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workloads BENCHMARK.json gates.  ``serve-open`` runs too and
#: measures the serving layers, but its figures spread by 15-50 %
#: between seeds on a shared 2-core host, past any bound the gate allows.
GATED = ("eval-mixed", "fleet-chunks")
WORKLOAD_NAMES = GATED + ("serve-open",)
#: Traced runs also run the other workloads this long, so every layer
#: is measured whichever workload was asked for.
COMPANION_SECONDS = 1.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no source tree at {ROOT / 'src'}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ.pop("REPRO_OBS_DIR", None)  # the journal would write elsewhere

    import importlib.util

    import numpy

    from repro.hw.kernels import default_kernel

    import layers
    import workloads

    traced = bool(args.trace)
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, work,
                                                 traced=traced)
        if traced:
            for name in WORKLOAD_NAMES:
                if name == args.workload:
                    continue
                other = workloads.WORKLOADS[name](args.seed, COMPANION_SECONDS,
                                                  work / name, traced=True)
                run.attempted += other.attempted
                run.failed += other.failed
                run.correct &= other.correct
                for key, value in other.layers.items():
                    run.layers.setdefault(key, value)
            from deploy import make_pool

            run.layers.update(layers.hardware_layers(make_pool(args.seed), args.seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_auto": default_kernel(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        **run.facts,
    }
    record = {"facts": facts, "metrics": run.metrics, "layers": run.layers}
    if traced:
        table = layers.render_table(args.workload, run.rows, run.total_s, run.basis)
        record["attribution"] = {"basis": run.basis, "total_s": run.total_s,
                                 "rows": run.rows}
        layers.log(table)
        untraced = out_dir / "results" / f"{args.workload}-seed{args.seed}-trace0.json"
        if untraced.is_file():
            overhead = layers.render_overhead(
                run.metrics, json.loads(untraced.read_text())["metrics"])
            layers.log(overhead)
            record["overhead"] = overhead
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    if traced:
        chosen = {k: (run.layers[k], unit) for k, (unit, _) in workloads.PER_LAYER.items()}
    else:
        chosen = {k: (run.metrics[k], unit) for k, (unit, _) in workloads.E2E.items()}
    print("perfbench facts " + json.dumps(facts), flush=True)
    print(json.dumps({
        "correct": run.correct and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in chosen.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
