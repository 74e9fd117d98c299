import json
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import patnet
from patnet.cli import cli_dispatch
from patnet.config import build_variant
from patnet.imageio import load_ppm, preprocess, save_ppm
from patnet.model import ParamStore, model_forward
from patnet.weights import load_weights, save_weights


@pytest.fixture(scope="module")
def t0_weights(tmp_path_factory):
    path = tmp_path_factory.mktemp("weights") / "t0.patw"
    assert cli_dispatch(["init", "--variant", "T0", "--seed", "1",
                         "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def sample_image(tmp_path_factory):
    path = tmp_path_factory.mktemp("images") / "probe.ppm"
    rng = np.random.default_rng(5)
    save_ppm(path, rng.uniform(0, 1, (1, 3, 300, 400)).astype(np.float32))
    return path


class TestSummary:
    def test_t0_params_near_reference(self, capsys):
        assert cli_dispatch(["summary", "--variant", "T0"]) == 0
        out = capsys.readouterr().out
        m = re.search(r"params\s+([\d,]+)", out)
        params = int(m.group(1).replace(",", ""))
        assert abs(params / 4.3e6 - 1) <= 0.05

    def test_custom_input_size(self, capsys):
        assert cli_dispatch(["summary", "--variant", "T0",
                             "--input-size", "256"]) == 0
        assert "256x256" in capsys.readouterr().out

    def test_numbers_equal_the_counters_exactly(self, capsys):
        from patnet.counting import count_flops, count_params
        assert cli_dispatch(["summary", "--variant", "T1"]) == 0
        out = capsys.readouterr().out
        params = int(re.search(r"params\s+([\d,]+)", out).group(1).replace(",", ""))
        flops = int(re.search(r"flops \(MACs\)\s+([\d,]+)", out)
                    .group(1).replace(",", ""))
        spec = build_variant("T1")
        assert params == count_params(spec)
        assert flops == count_flops(spec)

    def test_all_prints_every_variant_and_t2_arm(self, capsys):
        from patnet.config import ABLATION_MODES, VARIANT_TABLE, build_ablation
        from patnet.counting import count_flops, count_params
        assert cli_dispatch(["summary", "--variant", "all", "--input-size", "64"]) == 0
        out = capsys.readouterr().out
        found = re.findall(r"^\s*(\S+)\s+([\d.]+) M.*?([\d.]+) G", out, re.MULTILINE)
        rows = {label: (params, macs) for label, params, macs in found}
        t2 = build_variant("T2", 64)
        specs = {**{v: build_variant(v, 64) for v in VARIANT_TABLE},
                 **{m: build_ablation(t2, m) for m in ABLATION_MODES}}
        assert sorted(label for label, _, _ in found) == sorted(specs)  # one row each
        for label, spec in specs.items():
            expected = (f"{count_params(spec) / 1e6:.2f}",
                        f"{count_flops(spec, (64, 64)) / 1e9:.3f}")
            assert rows[label] == expected, label

    @pytest.mark.parametrize("size", ["0", "-32"])
    def test_input_size_below_32_exits_1(self, size, capsys):
        assert cli_dispatch(["summary", "--variant", "T0", "--input-size", size]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert cli_dispatch(["summary", "--variant", "T0", "--bogus"]) == 2

    def test_missing_required_flag_exits_2(self):
        assert cli_dispatch(["summary"]) == 2

    def test_bad_variant_exits_2(self):
        assert cli_dispatch(["summary", "--variant", "XXL"]) == 2

    def test_subprocess_usage_error(self):
        # the child imports the patnet under test, also when only pytest's
        # pythonpath setting put it on sys.path
        src = os.path.dirname(os.path.dirname(patnet.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "patnet", "nonsense"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 2
        assert proc.stderr  # usage text lands on stderr


class TestRuntimeErrors:
    def test_missing_weight_file_exits_1(self, capsys):
        code = cli_dispatch(["fuse", "--weights", "/nonexistent.patw",
                             "--out", "/tmp/x.patw"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fusing_twice_exits_1(self, t0_weights, tmp_path, capsys):
        fused = tmp_path / "f.patw"
        assert cli_dispatch(["fuse", "--weights", str(t0_weights),
                             "--out", str(fused)]) == 0
        assert cli_dispatch(["fuse", "--weights", str(fused),
                             "--out", str(tmp_path / "g.patw")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "already fused" in err
        assert not (tmp_path / "g.patw").exists()

    @pytest.mark.parametrize("damage", ["flipped_byte", "garbage"])
    @pytest.mark.parametrize("command", ["infer", "fuse"])
    def test_bad_weight_file_exits_1(self, t0_weights, sample_image, tmp_path,
                                     capsys, damage, command):
        blob = bytearray(t0_weights.read_bytes())
        if damage == "flipped_byte":
            blob[len(blob) // 2] ^= 0xFF  # a payload byte: the checksum fails
        else:
            blob = bytearray(b"not a weight file\n" * 8)  # the magic fails
        bad = tmp_path / "bad.patw"
        bad.write_bytes(bytes(blob))
        args = (["infer", "--weights", str(bad), "--image", str(sample_image)]
                if command == "infer"
                else ["fuse", "--weights", str(bad), "--out", str(tmp_path / "f.patw")])
        assert cli_dispatch(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err


class TestInfer:
    def test_topk_lines_and_finite_logits(self, t0_weights, sample_image,
                                          capsys):
        assert cli_dispatch(["infer", "--weights", str(t0_weights),
                             "--image", str(sample_image), "--topk", "7"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "classes 1000" in out[0]
        ranks = [line for line in out[1:] if re.match(r"\s*\d+\. ", line)]
        assert len(ranks) == 7
        assert all("logit=" in line for line in ranks)

    def test_labels_file_used(self, t0_weights, sample_image, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("\n".join(f"thing_{i}" for i in range(1000)))
        assert cli_dispatch(["infer", "--weights", str(t0_weights),
                             "--image", str(sample_image),
                             "--labels", str(labels), "--topk", "3"]) == 0
        out = capsys.readouterr().out
        assert "thing_" in out

    def test_fused_weights_give_same_top1(self, t0_weights, sample_image,
                                          tmp_path, capsys):
        fused = tmp_path / "fused.patw"
        cli_dispatch(["fuse", "--weights", str(t0_weights), "--out", str(fused)])
        capsys.readouterr()
        cli_dispatch(["infer", "--weights", str(t0_weights),
                      "--image", str(sample_image), "--topk", "1"])
        plain_top = capsys.readouterr().out.splitlines()[1]
        cli_dispatch(["infer", "--weights", str(fused),
                      "--image", str(sample_image), "--topk", "1"])
        fused_top = capsys.readouterr().out.splitlines()[1]
        assert plain_top.split()[1] == fused_top.split()[1]

    def test_photo_sized_image_matches_the_float_pipeline(self, t0_weights, tmp_path,
                                                          capsys):
        # a 1600x1200 photo is decoded as its uint8 pixels: the top-5 is that
        # of the whole image cast to float and divided by 255 first, and
        # decoding plus preprocessing stay near the file's own size (the
        # float image alone would be 22 MiB)
        width, height = 1600, 1200
        pixels = np.random.default_rng(7).integers(0, 256, (height, width, 3), np.uint8)
        path = tmp_path / "photo.ppm"
        path.write_bytes(f"P6\n{width} {height}\n255\n".encode() + pixels.tobytes())
        assert cli_dispatch(["infer", "--weights", str(t0_weights),
                             "--image", str(path), "--topk", "5"]) == 0
        printed = capsys.readouterr().out.splitlines()

        store, variant = load_weights(t0_weights)
        spec = build_variant(variant)
        img = pixels.transpose(2, 0, 1)[None].astype(np.float32) / np.float32(255)
        logits = model_forward(spec, store, preprocess(img))[0]
        top = np.argsort(-logits)[:5]
        assert printed[1:] == [f"{rank:2d}. class_{idx}  logit={logits[idx]:.4f}"
                               for rank, idx in enumerate(top, start=1)]

        tracemalloc.start()
        try:
            preprocess(load_ppm(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes, then the output and its two scratch planes
        # (0.96 MiB) beside one source row set, 224 rows of 1080 columns,
        # cast to float32 (0.92 MiB) from its uint8 gather (0.23 MiB)
        assert peak < path.stat().st_size + 2.25 * 2**20

    def test_t1_weights(self, sample_image, tmp_path, capsys):
        path = tmp_path / "t1.patw"
        assert cli_dispatch(["init", "--variant", "T1", "--out", str(path)]) == 0
        assert cli_dispatch(["infer", "--weights", str(path),
                             "--image", str(sample_image), "--topk", "1"]) == 0
        assert "variant T1 " in capsys.readouterr().out


class TestGradcheckCommand:
    def test_all_blocks_pass(self, capsys):
        assert cli_dispatch(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 3

    def test_single_block(self, capsys):
        assert cli_dispatch(["gradcheck", "--block", "pat_sp",
                             "--seed", "3"]) == 0
        assert "pat_sp" in capsys.readouterr().out


class TestFuseCommand:
    def test_json_report_fields(self, t0_weights, tmp_path, capsys):
        out_path = tmp_path / "fused.patw"
        assert cli_dispatch(["fuse", "--weights", str(t0_weights),
                             "--out", str(out_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "T0"
        assert payload["tensors_removed"] > 0
        assert payload["max_deviation"] <= 1e-3
        assert isinstance(payload["deviations"], dict)

    def test_drifting_rewrite_exits_1(self, t0_weights, tmp_path, capsys):
        store, _ = load_weights(t0_weights)
        mean = "stage1.block0.mlp.bn.mean"
        bad = tmp_path / "inf-mean.patw"
        save_weights(ParamStore(tensors={**store.tensors,
                                         mean: np.full_like(store[mean], np.inf)}), bad)
        assert cli_dispatch(["fuse", "--weights", str(bad),
                             "--out", str(tmp_path / "fused.patw")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fold_bn:stage1.block0.mlp.conv1" in err


class TestBenchCommand:
    def test_json_report(self, capsys):
        assert cli_dispatch(["bench", "--variant", "T0", "--batch", "1",
                             "--iters", "2", "--warmup", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["variant"] == "T0"
        assert payload["images_per_sec"] > 0
        assert payload["p95_latency_ms"] >= payload["p50_latency_ms"] >= 0
        assert payload["engine_workers"] >= 1
        assert {"blas_threads_batch1", "blas_threads_batched"} <= payload.keys()

    def test_text_report(self, capsys):
        assert cli_dispatch(["bench", "--variant", "T0", "--batch", "1",
                             "--iters", "1", "--warmup", "0"]) == 0
        out = capsys.readouterr().out
        assert "images/sec" in out and "engine worker" in out

    @pytest.mark.parametrize("flag,value", [("--batch", "0"), ("--batch", "-1"),
                                            ("--warmup", "-3")])
    def test_bad_batch_or_warmup_exits_1(self, flag, value, capsys):
        args = {"--batch": "1", "--iters": "1", "--warmup": "0", flag: value}
        assert cli_dispatch(["bench", "--variant", "T0",
                             *(t for kv in args.items() for t in kv)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
