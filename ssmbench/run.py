"""
Run one ssmkit benchmark workload and print its metrics.

    python3 ssmbench/run.py --workload frc_chain --seed 1 --seconds 40 --trace 0

The workload's model files are written first, off the clock. Then the
pipeline (see workloads.py) repeats, from model files to checked
results, until another repetition would overrun ``--seconds``. Within a
repetition a stage shorter than 0.2 s is run again until it has used
0.2 s. While an untraced repetition runs, reference.Meter times a fixed
kernel every 20 ms; each stage sample is scaled by it to seconds at the
reference speed (see reference.py: on a shared host identical work runs
1.5x slower at times, and no clock of the process sees it). Each stage
metric is the median of its scaled samples over the run, ``setup_s``
included, and ``total_s`` is the sum of the six. Raw samples, their
spans and every tick are kept in the results file. With ``--trace 1``
the repetitions alternate between untraced and traced; a traced
repetition runs each stage once, without the meter, and the per-layer
metrics all come from the fastest traced repetition, so that its self
times add up.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records provenance. Both are also written, with every sample, under
``.ssmbench_out/`` in the checkout.

ssmkit is imported from ``src/`` of the checkout this script lives in;
without it the run exits with code 2.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".ssmbench_out")


def _fail(message):
    print("ssmbench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_ssmkit():
    if not os.path.isfile(os.path.join(SRC, "ssmkit", "__init__.py")):
        _fail("no ssmkit sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import ssmkit
    if not os.path.abspath(ssmkit.__file__).startswith(SRC + os.sep):
        _fail("imported ssmkit from %s, not from %s" % (ssmkit.__file__, SRC))
    return ssmkit


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def _blas():
    import numpy as np
    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        import ctypes
        import glob
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    break
    except OSError:
        pass
    return info


def provenance(args, samples):
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": args.toy,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "samples": samples,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="run the workload at toy size (smoke test)")
    args = ap.parse_args(argv)

    # one BLAS thread: with two, a core taken by other work makes the
    # threads wait on each other, and a repetition can run 30x slower
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    _import_ssmkit()
    sys.path.insert(0, HERE)
    import models
    import reference
    import workloads as W
    from tracer import Tracer, layer_metrics, self_by_stage

    if args.workload not in W.SPECS:
        ap.error("unknown workload %r (one of %s)"
                 % (args.workload, ", ".join(sorted(W.SPECS))))
    spec = W.spec_for(args.workload, toy=args.toy)

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%s-%d" % (args.workload, os.getpid()))
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    tracer = None
    meter = reference.Meter()
    try:
        manifest = models.write(spec["model"], args.seed,
                                os.path.join(workdir, "model"))
        if args.trace:
            tracer = Tracer()
            tracer.install()
        checks = W.Checks()
        reps, traced = [], []
        start = time.perf_counter()
        longest = 0.0
        while True:
            # untraced and traced repetitions alternate
            use_tracer = (bool(args.trace)
                          and (len(reps) + len(traced)) % 2 == 1)
            rep = W.Repetition(spec, manifest, workdir, args.seed, checks,
                               tracer if use_tracer else None)
            t0 = time.perf_counter()
            if not use_tracer:
                meter.start()
            try:
                ok = rep.run()
            finally:
                meter.stop()
            longest = max(longest, time.perf_counter() - t0)
            if use_tracer:
                stats = tracer.take()
            if ok:
                (traced if use_tracer else reps).append(rep)
                if use_tracer:
                    rep.layers = layer_metrics(stats, sum(rep.times.values()))
                    rep.self_by_stage = self_by_stage(stats)
            if not ok and not reps:
                break
            if args.trace and not traced and len(reps) < 2:
                continue
            if time.perf_counter() - start + longest > args.seconds:
                break
    finally:
        meter.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    metrics, samples = {}, {}

    def put(name, values, stat=min):
        if values:
            metrics[name] = {"value": stat(values), "unit": units[name]}
            samples[name] = len(values)

    by_stage = None  # the fastest traced repetition, stage by stage
    # each stage metric: the median of its samples in seconds at the
    # reference speed (reference.py); stage_s, the best net sample, is
    # what the traced repetitions are compared with
    stage_s, scaled_s = {}, {}
    for stage in W.STAGES if reps else ():
        spans = [span for r in reps for span in r.spans[stage]]
        stage_s[stage] = min(meter.net(*span) for span in spans)
        values = [meter.scaled(*span) for span in spans]
        scaled_s[stage] = statistics.median(values)
        if not args.trace:
            put(stage + "_s", values, statistics.median)
    if not args.trace:
        if reps:
            put("total_s", [sum(scaled_s.values())])
            samples["total_s"] = len(reps)
        put("peak_rss_mb", [W.peak_rss_mb()])
    elif traced and reps:
        # every per-layer number from the fastest traced repetition, so
        # that the self times add up to its total
        fastest = min(traced, key=lambda r: sum(r.times.values()))
        layers = dict(fastest.layers)
        layers.update({"cohomology." + key: fastest.info[key]
                       for key in ("columns", "groups", "lstsq_columns",
                                   "manifold_bytes")})
        layers.update({"analysis." + key: fastest.info[key]
                       for key in ("frc_points", "unstable_points")})
        layers["model.lift_rss_mb"] = reps[0].lift_rss_mb
        layers["trace.overhead_frac"] = (
            layers["trace.total_s"] / sum(stage_s.values()) - 1.0)
        for name, value in layers.items():
            put(name, [value])
        samples["traced_repetitions"] = len(traced)
        by_stage = {"stage_s": fastest.times,
                    "self_by_stage": fastest.self_by_stage}

    correct = (checks.failed == 0 and checks.attempted > 0
               and all(name in metrics for name in units))
    result = {"correct": correct, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    prov = provenance(args, samples)
    prov["failures"] = checks.failures
    prov["meter"] = {"ticks": len(meter.times),
                     "median_tick_s": (statistics.median(meter.times)
                                       if meter.times else None)}
    if args.trace and "trace.untraced_frac" in metrics:
        # do the layer self times cover the stages to within the
        # tracer's own overhead?
        untraced = metrics["trace.untraced_frac"]["value"]
        overhead = metrics["trace.overhead_frac"]["value"]
        prov["trace_check"] = {"untraced_frac": untraced,
                               "overhead_frac": overhead,
                               "within": abs(untraced) <= abs(overhead)}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump({"provenance": prov, "result": result,
                   "traced": by_stage,
                   "medians": {
                       stage: statistics.median(
                           x for r in reps for x in r.samples[stage])
                       for stage in W.STAGES} if reps else {},
                   "repetitions": [
                       {"traced": r in traced, "samples": r.samples,
                        "spans": r.spans, "info": r.info}
                       for r in reps + traced],
                   "meter": {"starts": meter.starts, "busy": meter.busy,
                             "times": meter.times}}, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT, tag + "-spans.json"))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
