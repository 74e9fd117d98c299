#!/usr/bin/env python3
"""patnet benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the engine is imported from ``src/``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. The lines before it are
the environment block and run details. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5  # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "images_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}

PER_LAYER = {
    "tensor_ops.activation.self_ms": "ms",
    "tensor_ops.activation.elements": "elements",
    **{f"tensor_ops.conv2d_{k}.{m}": u
       for k in ("k3", "k1", "strided")
       for m, u in (("self_ms", "ms"), ("calls", "count"), ("gmac_per_s", "GMAC/s"),
                    ("macs", "MAC_computed"), ("bytes", "B_computed"))},
    "tensor_ops.matmul.self_ms": "ms",
    "tensor_ops.channel_stats.self_ms": "ms",
    "tensor_ops.softmax_rows.self_ms": "ms",
    "tensor_ops.gate_fns.self_ms": "ms",
    "tensor_ops.batch_norm_infer.self_ms": "ms",
    "tensor_ops.batch_norm_infer.calls": "count",
    "blocks.pat_ch_forward.self_ms": "ms",
    "blocks.gaussian_se_gate.self_ms": "ms",
    "blocks.pat_sf_forward.self_ms": "ms",
    "blocks.spatial_gate.self_ms": "ms",
    "blocks.attention_bias.self_ms": "ms",
    "blocks.attention_bias.calls": "count",
    "blocks.channel_concat.self_ms": "ms",
    "blocks.channel_concat.bytes_copied": "B_computed",
    "model.block_forward.self_ms": "ms",
    "model.model_forward.self_ms": "ms",
    "model.model_forward.ms": "ms",
    "model.gmac_per_s": "GMAC/s",
    "counting.macs_per_image": "MAC_computed",
    "weights.load_weights.ms": "ms",
    "weights.load_mb_per_s": "MB/s",
    "weights.save_weights.ms": "ms",
    "weights.file_bytes": "B",
    "imageio.load_ppm.ms": "ms",
    "imageio.preprocess.self_ms": "ms",
    "imageio.bilinear_resize.self_ms": "ms",
    "imageio.pixels_in": "pixels",
    "fusion.fuse_model.ms": "ms",
    "fusion.max_deviation": "abs",
    "fusion.tensors_removed": "count",
    **{f"{layer}.errors": "count" for layer in tracing.TRACED_MODULES},
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes this script starts
    ap.add_argument("--role", choices=("main", "probe", "reference"), default="main",
                    help=argparse.SUPPRESS)
    ap.add_argument("--workdir", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# child processes: set-up probes and the reference oracle
# ---------------------------------------------------------------------------

def role_probe(args) -> None:
    """One timed set-up in a fresh interpreter: ``import patnet`` through the
    end of the first request, which is not checked here."""
    t0 = time.perf_counter()
    import patnet  # noqa: F401  (the import is part of what is timed)
    import workloads

    engine = workloads.Engine(workloads.WORKLOADS[args.workload], args.seed, args.workdir)
    engine.request(0)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def role_reference(args) -> None:
    import numpy as np
    import workloads

    refs = workloads.reference_outputs(workloads.WORKLOADS[args.workload], args.seed)
    np.save(os.path.join(args.workdir, "reference.npy"), refs)


def run_child(args, role: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", args.workdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


# ---------------------------------------------------------------------------
# environment block
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count OpenBLAS reports for itself (read only), or None."""
    import ctypes

    import numpy as np

    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], timeout=30,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "patnet", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def environment(load_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads_in_effect": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# measured runs
# ---------------------------------------------------------------------------

def run_timed(args, wl, refs, details):
    import numpy as np
    import workloads

    setups = [run_child(args, "probe")["setup_s"] for _ in range(SETUP_PROBES)]
    engine = workloads.Engine(wl, args.seed, args.workdir)
    client = workloads.Client(engine, refs)
    _, first = client.send(0)  # untimed: lazy work and caches settle here
    ok = first is not None
    if wl.fused and first is not None:
        dev = workloads.logit_deviation(first, engine.unfused_forward(0).astype(np.float64))
        details["fused_vs_unfused_deviation"] = dev
        ok &= dev <= workloads.OUTPUT_RTOL

    lat = workloads.closed_loop(client, args.seconds, start=1)
    ok &= client.failed == 0 and len(lat) > 0
    details.update(setup_samples_s=setups, latency_samples=len(lat),
                   samples_beyond_p90=len(lat) // 10,
                   attempted=client.attempted, failed=client.failed,
                   fail_ratio=client.failed / client.attempted)
    metrics = {
        "latency_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3
                           if len(lat) > 1 else 0.0),
        "images_per_s": wl.batch * len(lat) / sum(lat) if lat else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (client.attempted - client.failed) / client.attempted,
    }
    return ok, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, client


def run_traced(args, wl, refs, details):
    import workloads

    tracer = tracing.Tracer()
    tracer.install()
    engine = workloads.Engine(wl, args.seed, args.workdir)  # traced set-up
    restored = tracer.restore()

    # untraced: one pass for the logits the traced run must reproduce, then
    # the untraced half of the time for the overhead ratio
    client = workloads.Client(engine, refs)
    plain = [client.send(k)[1] for k in range(wl.pool)]
    plain_lat = workloads.closed_loop(client, args.seconds / 2)

    # traced: whole passes over the pool, at least two, so counts compare
    tracer.install()
    traced_lat, bitwise, passes = [], True, 0
    deadline = time.perf_counter() + args.seconds / 2
    while passes < 2 or time.perf_counter() < deadline:
        for k in range(wl.pool):
            tracer.request = f"p{passes}r{k}"
            dt, out = client.send(k)
            if out is not None:
                traced_lat.append(dt)
            bitwise &= (out is not None and plain[k] is not None
                        and out.tobytes() == plain[k].tobytes())
        passes += 1
    restored &= tracer.restore()

    totals = tracing.layer_totals(tracer.spans)
    pass_counts = [tracing.exact_counts(totals, [f"p{p}r{k}" for k in range(wl.pool)])
                   for p in (0, 1)]
    counts_exact = pass_counts[0] == pass_counts[1]
    errors = sum(tracer.errors.values())
    trace_path = os.path.join(OUT_DIR, f"trace-{wl.name}-seed{args.seed}.json")
    tracer.write(trace_path)
    details.update(trace_file=os.path.relpath(trace_path, ROOT), traced_passes=passes,
                   traced_requests=passes * wl.pool, spans=len(tracer.spans),
                   logits_bitwise_equal=bitwise, originals_restored=restored,
                   counts_exact=counts_exact, layer_errors=tracer.errors,
                   attempted=client.attempted, failed=client.failed,
                   fail_ratio=client.failed / client.attempted)
    requests = [f"p{p}r{k}" for p in range(passes) for k in range(wl.pool)]
    values = layer_metrics(totals, requests, engine, wl, tracer.errors)
    values["trace.overhead_ratio"] = (statistics.median(traced_lat)
                                      / statistics.median(plain_lat))
    ok = (client.failed == 0 and bitwise and restored and counts_exact
          and errors == 0 and set(values) == set(PER_LAYER))
    return ok, {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}, client


def layer_metrics(totals, requests, engine, wl, errors) -> dict:
    n = len(requests)
    setup = totals["setup"]

    def col(group, key):
        return [totals[r][group][key] for r in requests]

    def self_ms(group):
        return statistics.median(col(group, "self_ns")) / 1e6

    def ms(group):
        return statistics.median(col(group, "ns")) / 1e6

    def per_request(group, key):
        return sum(col(group, key)) / n

    def rate(work, ns):  # work per second, 0 when the layer did not run
        return work / (ns / 1e9) if ns else 0.0

    v = {
        "tensor_ops.activation.self_ms": self_ms("tensor_ops.activation"),
        "tensor_ops.activation.elements": per_request("tensor_ops.activation", "elements"),
    }
    for k in ("k3", "k1", "strided"):
        g = f"tensor_ops.conv2d_{k}"
        v[f"{g}.self_ms"] = self_ms(g)
        v[f"{g}.calls"] = per_request(g, "calls")
        v[f"{g}.gmac_per_s"] = rate(sum(col(g, "macs")), sum(col(g, "self_ns"))) / 1e9
        v[f"{g}.macs"] = per_request(g, "macs")
        v[f"{g}.bytes"] = per_request(g, "bytes")
    for g in ("tensor_ops.matmul", "tensor_ops.channel_stats", "tensor_ops.softmax_rows",
              "tensor_ops.gate_fns", "tensor_ops.batch_norm_infer", "blocks.pat_ch_forward",
              "blocks.gaussian_se_gate", "blocks.pat_sf_forward", "blocks.spatial_gate",
              "blocks.attention_bias", "blocks.channel_concat", "model.block_forward",
              "model.model_forward", "imageio.preprocess", "imageio.bilinear_resize"):
        v[f"{g}.self_ms"] = self_ms(g)
    v["tensor_ops.batch_norm_infer.calls"] = per_request("tensor_ops.batch_norm_infer", "calls")
    v["blocks.attention_bias.calls"] = per_request("blocks.attention_bias", "calls")
    v["blocks.channel_concat.bytes_copied"] = per_request("blocks.channel_concat",
                                                          "bytes_copied")
    v["model.model_forward.ms"] = ms("model.model_forward")
    v["counting.macs_per_image"] = engine.macs_per_image
    v["model.gmac_per_s"] = rate(engine.macs_per_image * wl.batch * n,
                                 sum(col("model.model_forward", "ns"))) / 1e9
    v["weights.load_weights.ms"] = ms("weights.load_weights")
    v["weights.load_mb_per_s"] = rate(sum(col("weights.load_weights", "file_bytes")),
                                      sum(col("weights.load_weights", "ns"))) / 1e6
    v["weights.save_weights.ms"] = setup["weights.save_weights"]["ns"] / 1e6
    v["weights.file_bytes"] = setup["weights.save_weights"]["file_bytes"]
    v["imageio.load_ppm.ms"] = ms("imageio.load_ppm")
    v["imageio.pixels_in"] = per_request("imageio.load_ppm", "pixels_in")
    report = engine.fusion_report
    v["fusion.fuse_model.ms"] = setup["fusion.fuse_model"]["ns"] / 1e6
    v["fusion.max_deviation"] = report.max_deviation if report else 0.0
    v["fusion.tensors_removed"] = report.tensors_removed if report else 0
    for layer, count in errors.items():
        v[f"{layer}.errors"] = count
    return v


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "patnet", "__init__.py")):
        print(f"error: no engine source at {os.path.relpath(SRC, os.getcwd())}/patnet; "
              "run from the root of a patnet checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.role == "probe":
        role_probe(args)
        return 0
    if args.role == "reference":
        role_reference(args)
        return 0

    load_start = os.getloadavg()
    import numpy as np
    import patnet
    import workloads

    if not os.path.abspath(patnet.__file__).startswith(SRC + os.sep):
        print(f"error: patnet imported from {patnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    args.workdir = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    details: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace}
    try:
        workloads.write_inputs(wl, args.seed, args.workdir)
        run_child(args, "reference")
        refs = np.load(os.path.join(args.workdir, "reference.npy"))
        run = run_traced if args.trace else run_timed
        ok, metrics, client = run(args, wl, refs, details)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    print(json.dumps({"environment": environment(load_start)}))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": bool(ok), "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
