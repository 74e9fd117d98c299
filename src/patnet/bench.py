"""Throughput measurement over deterministic synthetic batches."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .config import ModelSpec
from .model import ParamStore, model_forward
from .tensor_ops import thread_config

INPUT_SEED = 0xBEC4


@dataclass
class BenchReport:
    variant: str
    batch_size: int
    warmup_iters: int
    measured_iters: int
    engine_workers: int  # threads a batched forward's kernels split across
    blas_threads_batch1: int | None  # None where OpenBLAS cannot be queried
    blas_threads_batched: int | None
    images_per_sec: float
    mean_latency_ms: float
    p50_latency_ms: float
    p95_latency_ms: float


def bench_run(spec: ModelSpec, store: ParamStore, batch: int, iters: int,
              warmup: int) -> BenchReport:
    """Time ``iters`` steady-state forwards of one deterministic batch, one
    at a time: a forward already runs on every core it can use, so forwards
    run side by side would only compete for them."""
    if batch < 1:
        raise ValueError("batch must be at least 1")
    if iters < 1:
        raise ValueError("iters must be at least 1")
    if warmup < 0:
        raise ValueError("warmup must not be negative")
    rng = np.random.default_rng(INPUT_SEED)
    h, w = spec.input_hw
    x = rng.standard_normal((batch, 3, h, w), dtype=np.float32)

    def one_forward() -> float:
        t0 = time.perf_counter()
        model_forward(spec, store, x)
        return (time.perf_counter() - t0) * 1e3

    for _ in range(warmup):
        one_forward()

    t_start = time.perf_counter()
    latencies = [one_forward() for _ in range(iters)]
    elapsed = time.perf_counter() - t_start

    lat = np.sort(np.asarray(latencies))
    return BenchReport(
        variant=spec.label,
        batch_size=batch,
        warmup_iters=warmup,
        measured_iters=iters,
        **thread_config(),
        images_per_sec=iters * batch / elapsed,
        mean_latency_ms=float(lat.mean()),
        p50_latency_ms=float(np.percentile(lat, 50)),
        p95_latency_ms=float(np.percentile(lat, 95)),
    )
