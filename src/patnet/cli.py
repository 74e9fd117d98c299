"""Command line surface.

Subcommands: summary, init, fuse, infer, gradcheck, bench. Results go to
stdout, diagnostics to stderr; exit codes are 0 (ok), 1 (runtime failure),
2 (usage).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .bench import bench_run
from .config import (
    ABLATION_MODES,
    REFERENCE_FLOPS_G,
    REFERENCE_PARAMS_M,
    VARIANT_TABLE,
    build_ablation,
    build_variant,
)
from .counting import count_flops, count_params
from .fusion import fuse_model
from .gradcheck import BLOCK_KINDS, gradcheck_block
from .imageio import load_ppm, preprocess
from .model import init_params, model_forward
from .weights import load_weights, save_weights


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patnet",
        description="CPU inference and verification tools for the PATNet family")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summary", help="print parameter and MAC counts")
    p.add_argument("--variant", required=True, choices=[*VARIANT_TABLE, "all"],
                   help="one variant, or all for a table of every variant "
                        "and T2 study arm")
    p.add_argument("--input-size", type=int, default=224)

    p = sub.add_parser("init", help="write deterministically initialized weights")
    p.add_argument("--variant", required=True, choices=list(VARIANT_TABLE))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fuse", help="fold BN and merge gate maps in a weight file")
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("infer", help="classify one PPM image")
    p.add_argument("--weights", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--labels")
    p.add_argument("--topk", type=int, default=5)

    p = sub.add_parser("gradcheck", help="verify block gradients numerically")
    p.add_argument("--block", choices=list(BLOCK_KINDS))
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="measure forward throughput")
    p.add_argument("--variant", required=True, choices=list(VARIANT_TABLE))
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--fused", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    return parser


def _summary_row(label, spec, hw, ref_p=None, ref_f=None) -> None:
    p = count_params(spec) / 1e6
    f = count_flops(spec, hw) / 1e9
    dp = f" ({(p / ref_p - 1) * 100:+.1f}% vs {ref_p})" if ref_p else ""
    df = f" ({(f / ref_f - 1) * 100:+.1f}% vs {ref_f})" if ref_f else ""
    print(f"{label:<18} {p:9.2f} M{dp:<18} {f:8.3f} G{df}")


def _summary_table(size: int) -> int:
    """Params and MACs of every variant against the published figures, then
    of every T2 study arm."""
    hw = (size, size)
    print(f"{'model':<18} {'params':>11} {'':18} {'MACs':>9}")
    for name in VARIANT_TABLE:
        _summary_row(name, build_variant(name, size), hw,
                     REFERENCE_PARAMS_M[name], REFERENCE_FLOPS_G[name])
    print()
    t2 = build_variant("T2", size)
    print("T2 study arms:")
    for mode in ABLATION_MODES:
        _summary_row(f"  {mode}", build_ablation(t2, mode), hw)
    return 0


def _cmd_summary(args) -> int:
    if args.variant == "all":
        return _summary_table(args.input_size)
    spec = build_variant(args.variant, input_size=args.input_size)
    params = count_params(spec)
    flops = count_flops(spec, (args.input_size, args.input_size))
    fused_flops = count_flops(spec, (args.input_size, args.input_size), fused=True)
    print(f"variant        {args.variant}")
    print(f"input size     {args.input_size}x{args.input_size}")
    print(f"params         {params:>14,d}  ({params / 1e6:.2f} M)")
    print(f"flops (MACs)   {flops:>14,d}  ({flops / 1e9:.2f} G)")
    print(f"flops fused    {fused_flops:>14,d}  ({fused_flops / 1e9:.2f} G)")
    return 0


def _cmd_init(args) -> int:
    spec = build_variant(args.variant)
    store = init_params(spec, args.seed)
    save_weights(store, args.out)
    print(f"wrote {len(store.tensors)} tensors "
          f"({store.total_elements():,d} scalars) to {args.out}")
    return 0


def _cmd_fuse(args) -> int:
    store, variant = load_weights(args.weights)
    spec = build_variant(variant)
    fused, report = fuse_model(store, spec)
    save_weights(fused, args.out)
    if args.json:
        print(json.dumps({"variant": variant,
                          "tensors_removed": report.tensors_removed,
                          "max_deviation": report.max_deviation,
                          "deviations": report.deviations}))
    else:
        print(f"fused {variant}: removed {report.tensors_removed} tensors, "
              f"max rewrite deviation {report.max_deviation:.3e}")
        print(f"wrote {args.out}")
    return 0


def _cmd_infer(args) -> int:
    store, variant = load_weights(args.weights)
    spec = build_variant(variant)
    img = load_ppm(args.image)
    x = preprocess(img, crop=spec.input_hw[0])
    logits = model_forward(spec, store, x)[0]
    if not np.all(np.isfinite(logits)):
        raise ValueError("model produced non-finite logits")

    if args.labels:
        with open(args.labels, encoding="utf-8") as fh:
            labels = [line.rstrip("\n") for line in fh]
    else:
        labels = None
    k = max(1, min(args.topk, logits.size))
    order = np.argsort(-logits)[:k]
    print(f"variant {variant}  classes {logits.size}")
    for rank, idx in enumerate(order, start=1):
        name = labels[idx] if labels and idx < len(labels) else f"class_{idx}"
        print(f"{rank:2d}. {name}  logit={logits[idx]:.4f}")
    return 0


def _cmd_gradcheck(args) -> int:
    kinds = [args.block] if args.block else list(BLOCK_KINDS)
    ok = True
    for kind in kinds:
        report = gradcheck_block(kind, seed=args.seed)
        ok &= report.passed
        status = "pass" if report.passed else "FAIL"
        print(f"{kind:7s} {status}  max rel err {report.max_error:.3e} "
              f"(tolerance {report.tolerance:.0e})")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    spec = build_variant(args.variant)
    store = init_params(spec, args.seed)
    if args.fused:
        store, _ = fuse_model(store, spec)
    report = bench_run(spec, store, args.batch, args.iters, args.warmup)
    if args.json:
        print(json.dumps(dataclasses.asdict(report)))
    else:
        print(f"variant          {report.variant}{' (fused)' if args.fused else ''}")
        print(f"batch x iters    {report.batch_size} x {report.measured_iters} "
              f"(+{report.warmup_iters} warmup)")
        print(f"threads          {report.engine_workers} engine worker(s); BLAS "
              f"{report.blas_threads_batch1} at batch 1, "
              f"{report.blas_threads_batched} at batch > 1")
        print(f"images/sec       {report.images_per_sec:10.2f}")
        print(f"latency ms       mean {report.mean_latency_ms:.2f}  "
              f"p50 {report.p50_latency_ms:.2f}  p95 {report.p95_latency_ms:.2f}")
    return 0


_COMMANDS = {
    "summary": _cmd_summary,
    "init": _cmd_init,
    "fuse": _cmd_fuse,
    "infer": _cmd_infer,
    "gradcheck": _cmd_gradcheck,
    "bench": _cmd_bench,
}


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
