"""Workload definitions: seeded inputs, seeded weights, engine set-up, the
request each closed-loop iteration sends and the client that checks it.

Everything the engine sees is generated here from the workload seed: the
weights (``init_params`` followed by a seeded perturbation, so that BN
folding and the attention bias do real work) and the input pool (float32
tensors, or PPM files of varied size and orientation for ``infer_cold``).
The engine is driven only through the public functions of ``config``,
``model``, ``fusion``, ``weights`` and ``imageio``, always through the
module attribute so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

from patnet import config, counting, fusion, imageio, model, weights
from refmodel import reference_logits, reference_preprocess

# Relative to the largest |logit| of the float64 reference, per image. The
# float32 engine sits at about 3e-6 on these seeds; a broken BN fold, gate
# merge or attention bias moves logits by 1e-2 or more.
OUTPUT_RTOL = 2e-4
TOPK = 5
CROP = 224
PPM_SHORT_SIDE = (250, 768)
PPM_ASPECT = (1.0, 1.5)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    batch: int
    fused: bool
    pool: int  # distinct inputs the closed loop cycles over
    infer: bool = False  # full `patnet infer` request path instead of a forward


# Why these three: the first is where GELU, 3x3 convs and per-forward
# overhead dominate; the second where GEMMs dominate and a GELU change
# predicts no change, and where batch-level parallelism can show; the third
# is the only one that reads weight files, decodes images and runs BN.
WORKLOADS = {w.name: w for w in (
    Workload("t0_b1_latency", "T0", 1, True, 16),
    Workload("t2_b8_throughput", "T2", 8, True, 3),
    Workload("infer_cold", "T0", 1, False, 8, infer=True),
)}


def perturb(store: model.ParamStore, seed: int) -> model.ParamStore:
    """Seeded non-identity BN statistics, relative-position tables and biases.

    ``init_params`` leaves BN at identity and the tables and biases at zero,
    which would let a broken fold or attention bias pass the output check.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    out = {}
    for name, t in store.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf == "gamma":
            t = rng.uniform(0.5, 1.5, t.shape)
        elif leaf in ("beta", "mean"):
            t = rng.normal(0.0, 0.2, t.shape)
        elif leaf == "var":
            t = rng.uniform(0.5, 2.0, t.shape)
        elif leaf == "rpe":
            t = rng.normal(0.0, 1.0, t.shape)
        elif leaf in ("bias", "b1", "b2", "bq", "bk", "bv", "bo"):
            t = rng.normal(0.0, 0.1, t.shape)
        out[name] = np.asarray(t, dtype=np.float32)
    return model.ParamStore(tensors=out, fused=False)


def build_store(wl: Workload, seed: int):
    """(spec, unfused perturbed store) of the workload's model."""
    spec = config.build_variant(wl.variant)
    return spec, perturb(model.init_params(spec, seed), seed)


def make_inputs(wl: Workload, seed: int) -> list[np.ndarray]:
    """The input pool: float32 (batch, 3, 224, 224) tensors, or for the infer
    workload (h, w, 3) uint8 images whose shorter side is stratified over
    ``PPM_SHORT_SIDE`` and whose orientation alternates, so every seed gets
    the same spread of sizes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    if not wl.infer:
        return [rng.standard_normal((wl.batch, 3, CROP, CROP), dtype=np.float32)
                for _ in range(wl.pool)]
    lo, hi = PPM_SHORT_SIDE
    a_lo, a_hi = PPM_ASPECT
    aspects = rng.permutation(wl.pool)
    images = []
    for i in range(wl.pool):
        short = int(lo + (hi - lo) * (i + rng.uniform()) / wl.pool)
        long = int(short * (a_lo + (a_hi - a_lo) * (aspects[i] + rng.uniform()) / wl.pool))
        hw = (short, long) if i % 2 == 0 else (long, short)
        images.append(rng.integers(0, 256, (*hw, 3), dtype=np.uint8))
    order = rng.permutation(wl.pool)
    return [images[i] for i in order]


def input_path(workdir: str, wl: Workload, i: int) -> str:
    return os.path.join(workdir, f"input{i}.ppm" if wl.infer else f"input{i}.npy")


def write_inputs(wl: Workload, seed: int, workdir: str) -> None:
    for i, item in enumerate(make_inputs(wl, seed)):
        path = input_path(workdir, wl, i)
        if wl.infer:
            h, w, _ = item.shape
            with open(path, "wb") as fh:
                fh.write(f"P6\n{w} {h}\n255\n".encode() + item.tobytes())
        else:
            np.save(path, item)


class Engine:
    """The engine set up as a user would for one workload.

    Construction is the set-up that ``setup_s`` times: model build, seeded
    weights, and either ``fuse_model`` or ``save_weights``. ``request(k)``
    sends pool input ``k`` and returns ``(logits, top)`` where ``top``
    is the top-5 class indices on the infer path and None otherwise.
    """

    def __init__(self, wl: Workload, seed: int, workdir: str):
        self.wl = wl
        self.spec, self.unfused = build_store(wl, seed)
        self.fusion_report = None
        if wl.infer:
            self.weights_path = os.path.join(workdir, "model.patw")
            weights.save_weights(self.unfused, self.weights_path)
            self.store = None
            self.inputs = [input_path(workdir, wl, i) for i in range(wl.pool)]
        else:
            self.store, self.fusion_report = fusion.fuse_model(self.unfused, self.spec)
            self.inputs = [np.load(input_path(workdir, wl, i)) for i in range(wl.pool)]
        self.macs_per_image = counting.count_flops(self.spec, fused=wl.fused)

    def request(self, k: int):
        if self.wl.infer:
            return self._infer(self.inputs[k])
        return model.model_forward(self.spec, self.store, self.inputs[k]), None

    def _infer(self, image_path: str):
        # the `patnet infer` request: weights, image, forward, top-k
        store, variant = weights.load_weights(self.weights_path)
        spec = config.build_variant(variant)
        x = imageio.preprocess(imageio.load_ppm(image_path), crop=spec.input_hw[0])
        logits = model.model_forward(spec, store, x)
        return logits, np.argsort(-logits[0])[:TOPK]

    def unfused_forward(self, k: int) -> np.ndarray:
        return model.model_forward(self.spec, self.unfused, self.inputs[k])


def reference_outputs(wl: Workload, seed: int) -> np.ndarray:
    """(pool, batch, classes) float64 reference logits from the independent
    oracle in ``refmodel``; computed outside the timed path."""
    spec, store = build_store(wl, seed)
    refs = []
    for item in make_inputs(wl, seed):
        x = reference_preprocess(item, CROP) if wl.infer else item
        refs.append(reference_logits(spec, store.tensors, x))
    return np.stack(refs)


def logit_deviation(out: np.ndarray, ref: np.ndarray) -> float:
    """Largest per-image max |out - ref|, relative to that image's largest
    |reference logit|; inf when ``out`` has the wrong shape or non-finite
    values."""
    out = np.asarray(out)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return float("inf")
    scale = np.abs(ref).max(axis=1)
    return float((np.abs(out - ref).max(axis=1) / scale).max())


def output_ok(out, top, ref: np.ndarray) -> bool:
    """Logits within ``OUTPUT_RTOL`` of the reference and, on the infer path,
    a top-5 that is a valid top-5 of the reference within that tolerance."""
    if not logit_deviation(out, ref) <= OUTPUT_RTOL:
        return False
    if top is None:
        return True
    row = ref[0]
    slack = OUTPUT_RTOL * np.abs(row).max()
    kth = np.sort(row)[-TOPK]
    top = np.asarray(top)
    return (top.shape == (TOPK,) and len(set(top.tolist())) == TOPK
            and bool(np.all(row[top] >= kth - slack)))


class Client:
    """The single closed-loop client: sends request ``i`` only after request
    ``i - 1`` returned, checks every output against the reference."""

    def __init__(self, engine, refs):
        self.engine, self.refs = engine, refs
        self.attempted = self.failed = 0

    def send(self, i: int):
        """(seconds, logits) of one request; logits is None when it failed."""
        k = i % len(self.refs)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, top = self.engine.request(k)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        if not output_ok(out, top, self.refs[k]):
            print(f"request {i}: output check failed (deviation "
                  f"{logit_deviation(out, self.refs[k]):.3e})", file=sys.stderr)
            self.failed += 1
            return dt, None
        return dt, out


def closed_loop(client, seconds: float, start: int = 0) -> list[float]:
    """Latencies of the successful requests sent during ``seconds``."""
    lat, i = [], start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        dt, out = client.send(i)
        if out is not None:
            lat.append(dt)
        i += 1
    return lat
