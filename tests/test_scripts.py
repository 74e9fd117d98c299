import os
import re
import subprocess
import sys
from pathlib import Path

from patnet.config import ABLATION_MODES, VARIANT_TABLE, build_ablation, build_variant
from patnet.counting import count_flops, count_params

ROOT = Path(__file__).resolve().parents[1]


def test_summarize_variants_prints_every_variant_and_t2_arm():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "summarize_variants.py"),
         "--input-size", "64"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    found = re.findall(r"^\s*(\S+)\s+([\d.]+) M.*?([\d.]+) G", proc.stdout, re.MULTILINE)
    rows = {label: (params, macs) for label, params, macs in found}
    t2 = build_variant("T2", 64)
    specs = {**{v: build_variant(v, 64) for v in VARIANT_TABLE},
             **{m: build_ablation(t2, m) for m in ABLATION_MODES}}
    assert sorted(label for label, _, _ in found) == sorted(specs)  # one row each
    for label, spec in specs.items():
        expected = (f"{count_params(spec) / 1e6:.2f}",
                    f"{count_flops(spec, (64, 64)) / 1e9:.3f}")
        assert rows[label] == expected, label
