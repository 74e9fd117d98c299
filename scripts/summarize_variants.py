#!/usr/bin/env python3
"""Print the cost accounting table for every variant and study arm.

Usage: python3 scripts/summarize_variants.py [--input-size 224]
"""

import argparse

from patnet.config import (
    ABLATION_MODES,
    REFERENCE_FLOPS_G,
    REFERENCE_PARAMS_M,
    VARIANT_TABLE,
    build_ablation,
    build_variant,
)
from patnet.counting import count_flops, count_params


def row(label, spec, hw, ref_p=None, ref_f=None):
    p = count_params(spec) / 1e6
    f = count_flops(spec, hw) / 1e9
    dp = f" ({(p / ref_p - 1) * 100:+.1f}% vs {ref_p})" if ref_p else ""
    df = f" ({(f / ref_f - 1) * 100:+.1f}% vs {ref_f})" if ref_f else ""
    print(f"{label:<18} {p:9.2f} M{dp:<18} {f:8.3f} G{df}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--input-size", type=int, default=224)
    args = parser.parse_args()
    hw = (args.input_size, args.input_size)

    print(f"{'model':<18} {'params':>11} {'':18} {'MACs':>9}")
    for name in VARIANT_TABLE:
        row(name, build_variant(name, args.input_size), hw,
            REFERENCE_PARAMS_M[name], REFERENCE_FLOPS_G[name])

    print()
    t2 = build_variant("T2", args.input_size)
    print("T2 study arms:")
    for mode in ABLATION_MODES:
        row(f"  {mode}", build_ablation(t2, mode), hw)


if __name__ == "__main__":
    main()
