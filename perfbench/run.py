"""distorder benchmark: end-to-end wall time and comparison counts, or
per-layer spans, for one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload random-sparse --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

The package is imported from ``src/`` of the same checkout.  One run repeats
full passes over the seed's inputs until ``--seconds`` is used up.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each time
at the reference machine speed of ``calibrate.py`` (the measured figures
are printed above the result);
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, writing their spans under
``perfbench/out/``.  Every package output is checked against the
benchmark's own oracles, and the comparison and addition counts of every
call must repeat exactly across passes, traced or not.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("random-sparse", "broom-dense", "heap-churn")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> None:
    """Put this checkout's ``src`` first on the path and import distorder."""
    src = ROOT / "src"
    if not (src / "distorder" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'distorder'}")
    sys.path[:0] = [str(src), str(HERE)]
    import distorder

    if Path(distorder.__file__).resolve().parent != src / "distorder":
        sys.exit(f"perfbench: imported distorder from {distorder.__file__}")


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    merged, ok, attempted, failed = {}, True, 0, 0
    for wl in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {wl}")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {wl} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        merged.update({f"{wl}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from oracle import Checker
    from perlayer import per_layer
    from tracer import Tracer
    from workloads import make_inputs, run_pass

    inputs = make_inputs(args.workload, args.seed)
    window = inputs.window_extracts if args.workload == "heap-churn" else None
    checker = Checker()
    reference = None

    def guard(p):
        nonlocal reference
        if reference is None:
            reference = p.calls
        checker.record(p.calls == reference,
                       "comparison/addition counts differ between passes")

    samples: dict[str, list[list[float]]] = {}  # metric -> per pass, per call
    raw_samples: dict[str, list[list[float]]] = {}  # the same, as measured
    layer_samples: dict[str, list[float]] = {}
    counts = None
    last_tracer = None
    t0 = time.perf_counter()
    passes = 0
    while True:
        p = run_pass(args.workload, inputs, None, checker)
        guard(p)
        for k, v in p.scaled.items():
            samples.setdefault(k, []).append(v)
        for k, v in p.times.items():
            raw_samples.setdefault(k, []).append(v)
        counts = counts or dict(p.counts)
        if args.trace:
            tr = Tracer()
            tr.install()
            try:
                q = run_pass(args.workload, inputs, tr, checker)
            finally:
                tr.uninstall()
            guard(q)
            layers = per_layer(tr, q, _wall(p), _wall(q), window)
            for k, v in layers.items():
                layer_samples.setdefault(k, []).append(v)
            last_tracer = tr
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / passes > args.seconds:
            break

    print(f"workload {args.workload} seed {args.seed}: {passes} passes "
          f"in {elapsed:.2f} s{' (untraced + traced)' if args.trace else ''}")
    if args.trace:
        values = {k: statistics.median(v) for k, v in layer_samples.items()}
        wanted = spec["per_layer"]
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        last_tracer.save(spans)
        print(f"spans: {len(last_tracer.name)} written to {spans.relative_to(ROOT)}")
    else:
        values = {}
        for k, per_pass in samples.items():
            raw = [sum(calls) for calls in raw_samples[k]]
            print(f"{k:14s} measured per pass over {len(raw)} passes: median "
                  f"{statistics.median(raw):.6g} min {min(raw):.6g} s")
            # Each timed call's median over the run, at the reference speed
            # of calibrate.py, summed over the calls of a pass.
            values[k] = sum(map(statistics.median, zip(*per_pass)))
        values.update(counts)
        values["peak_rss_mb"] = _peak_rss_mb()
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        sys.exit(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(missing)}")

    baseline = _baseline(args.workload)
    for m in wanted:
        v = values[m["name"]]
        base = baseline.get(m["name"])
        vs = f"  (seed baseline median {base:.6g}, x{v / base:.3f})" if base else ""
        print(f"{m['name']:48s} {v:.6g} {m['unit']}{vs}")
    frac = checker.failed / checker.attempted
    print(f"failed_frac {frac:.6g} ({checker.failed} of {checker.attempted} "
          "checked outputs)")
    for reason in checker.reasons:
        print(f"FAILED: {reason}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ``ru_maxrss`` keeps the peak of the pre-exec image, i.e. of whatever
    process launched the benchmark, so the kernel's per-image VmHWM is read
    where it exists.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _wall(p) -> float:
    return sum(sum(v) for v in p.times.values())


def _baseline(workload: str) -> dict[str, float]:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    medians = json.loads(path.read_text())["workloads"].get(workload, {})
    return {k: v["median"] for k, v in medians.items()}


if __name__ == "__main__":
    sys.exit(main())
