"""Run one dofdm-lab benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload gen-data --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics (set-up time, the fastest of three
cold set-ups; peak memory; items per second); --trace 1 wraps the package's public functions in spans and prints
the per-layer metrics derived from them. The package is imported from the
checkout's own src/. Results and spans are written under perfbench/out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from tracing import WRITERS, Tracer, summarize  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-ups timed per run and workload: this process's own, plus fresh
# interpreters that stop at the first round; setup_s is the fastest
COLD_SETUPS = 3


def declared_metrics() -> dict:
    """BENCHMARK.json's 'end_to_end' and 'per_layer' metrics, each as name -> unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def per_layer_value(name: str, phases: dict, tracer, ops: int):
    """One per-layer figure, worked out from its name.

    setup.<span>.s is the span's total time during set-up; <span>.bytes the
    mean size of the file written per call; <span>.s, .self_s and .calls are
    timed-region totals per operation.
    """
    if name == "autodiff.tape_nodes_per_forward":
        nodes = tracer.forward_nodes
        return statistics.median(nodes) if nodes else 0
    if name.startswith("setup.") and name.endswith(".s"):
        span = name[len("setup."):-len(".s")]
        if span in tracer.names:
            return phases["setup"].get(span, {}).get("s", 0.0)
    span, _, kind = name.rpartition(".")
    row = phases["timed"].get(span)
    if span in tracer.names and kind == "bytes" and span in WRITERS:
        return row["bytes"] / row["calls"] if row else 0
    if span in tracer.names and kind in ("s", "self_s", "calls"):
        return row[kind] / ops if row else 0
    raise ValueError(f"per-layer metric {name!r} names no traced span and figure")


def per_layer_values(tracer, ops: int, names) -> dict:
    """Timed-region figures per operation; set-up figures per set-up."""
    phases = summarize(tracer.spans, tracer.span_bytes)
    return {name: per_layer_value(name, phases, tracer, ops) for name in names}


def cold_setup_s(args) -> float:
    """The workload's set-up time in a fresh interpreter, from its first statement."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def completeness_errors(tracer, out) -> list:
    """The traced calls must account for every tape node and every window."""
    errors = [
        f"{counted} traced primitive ops recorded, tape holds {n} nodes"
        for counted, n in tracer.tape_mismatches[:3]
    ]
    steps = out.info.get("recording_forwards")
    if steps is not None and tracer.tapes_checked != steps:
        errors.append(f"{tracer.tapes_checked} recording forwards checked, {steps} steps run")
    expected = out.info.get("model_windows")
    if expected is not None:
        for name, rows in tracer.forward_rows.items():
            if rows != expected:
                errors.append(f"{name}: {rows} batch rows, expected {expected}")
    return errors


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up, print it and exit without a timed round")
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "dofdm_lab", "__init__.py")):
        print(f"error: no package source at {SRC}/dofdm_lab; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dofdm_lab

    if os.path.dirname(os.path.dirname(os.path.abspath(dofdm_lab.__file__))) != SRC:
        print(f"error: dofdm_lab imported from {dofdm_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    imported = time.perf_counter()

    args = parse_args(argv)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.seed, args.seconds, workdir, tracer, setup_only=args.setup_only)
    try:
        if tracer is not None:
            with tracer.installed(workloads.MODULES):
                out = workloads.WORKLOADS[args.workload](run)
        else:
            out = workloads.WORKLOADS[args.workload](run)
    except workloads.SetupDone as done:
        print(json.dumps({"setup_s": done.args[0] - T0}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not out.rates:
        print("error: no round completed", file=sys.stderr)
        return 1
    done = out.attempted - out.failed
    declared = declared_metrics()
    setups = []
    if tracer is not None:
        out.errors.extend(completeness_errors(tracer, out))
        units = declared["per_layer"]
        values = per_layer_values(tracer, done, units)
    else:
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [out.setup_end - T0] + [cold_setup_s(args) for _ in range(COLD_SETUPS - 1)]
        # fastest set-up and fastest sample: host contention only ever slows them down
        values = {"setup_s": min(setups), "peak_rss_mib": peak_rss_mib, "items_per_s": max(out.rates)}
        units = declared["end_to_end"]
    result = {
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, items=out.unit, rates=out.rates, setups_s=setups, timed_s=out.timed_s,
                  wall_s=time.perf_counter() - T0, import_s=imported - T0, errors=out.errors,
                  info=out.info, environment=environment())
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    for msg in out.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    rates = ", ".join(f"{r:.4g}" for r in out.rates)
    print(f"{args.workload}: {len(out.rates)} samples, {out.unit}/s per sample [{rates}], "
          f"median {statistics.median(out.rates):.4g}, "
          f"timed {out.timed_s:.2f} s, wall {detail['wall_s']:.2f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
