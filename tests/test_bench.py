import statistics
import time

import numpy as np
import pytest

from patnet import tensor_ops
from patnet.bench import INPUT_SEED, bench_run
from patnet.config import build_variant
from patnet.fusion import fuse_model
from patnet.model import init_params, model_forward


@pytest.fixture(scope="module")
def t0():
    spec = build_variant("T0")
    return spec, init_params(spec, seed=0)


class TestBenchRun:
    def test_report_fields_sane(self, t0):
        spec, store = t0
        r = bench_run(spec, store, batch=1, iters=3, warmup=1)
        assert r.variant == "T0"
        assert r.images_per_sec > 0
        assert r.p95_latency_ms >= r.p50_latency_ms >= 0
        assert r.mean_latency_ms > 0
        assert r.measured_iters == 3 and r.warmup_iters == 1

    def test_rejects_zero_iters(self, t0):
        spec, store = t0
        with pytest.raises(ValueError):
            bench_run(spec, store, batch=1, iters=0, warmup=0)

    def test_reports_thread_configuration(self, t0):
        spec, store = t0
        r = bench_run(spec, store, batch=2, iters=2, warmup=0)
        assert tensor_ops.thread_config() == {"blas_threads": r.blas_threads}
        if tensor_ops._openblas_threads() is not None:  # the count BLAS reports
            assert r.blas_threads == tensor_ops._openblas_threads()() >= 1

    def test_small_variant_faster_than_large(self):
        t0_spec = build_variant("T0")
        l_spec = build_variant("L")
        r_small = bench_run(t0_spec, init_params(t0_spec, seed=0),
                            batch=1, iters=2, warmup=1)
        r_large = bench_run(l_spec, init_params(l_spec, seed=0),
                            batch=1, iters=2, warmup=1)
        assert r_small.images_per_sec > r_large.images_per_sec

    def test_fused_not_meaningfully_slower(self, t0):
        # Fused and unfused forwards alternate inside one loop, the order
        # swapped every round, and the gate takes the median of the per-pair
        # ratios: host speed drift and load from other processes then hit
        # both sides of a pair alike instead of whole runs of one side.
        spec, store = t0
        fused, _ = fuse_model(store, spec)
        x = np.random.default_rng(INPUT_SEED).standard_normal(
            (1, 3, *spec.input_hw), dtype=np.float32)

        def timed(s):
            t0 = time.perf_counter()
            model_forward(spec, s, x)
            return time.perf_counter() - t0

        timed(store), timed(fused)  # warm-up
        ratios = []
        for i in range(60):
            if i % 2:
                merged, plain = timed(fused), timed(store)
            else:
                plain, merged = timed(store), timed(fused)
            ratios.append(merged / plain)
        assert statistics.median(ratios) <= 1.05
