"""The batch split: kernels of a batched forward run over batch slices on
the engine's thread pool while OpenBLAS is pinned to one thread."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import patnet
from patnet import blocks, tensor_ops
from patnet.config import build_ablation, build_variant
from patnet.fusion import fuse_model
from patnet.model import init_params, model_forward

pytestmark = pytest.mark.skipif(
    not tensor_ops._split_ready(),
    reason="needs two CPUs and an OpenBLAS whose thread count can be set")

SIZE = 64  # bitwise equality does not depend on the extent; keeps the runs short


def blas_threads() -> int:
    return tensor_ops._openblas_threads()[0]()


@pytest.fixture
def blas_at_cpu_count():
    """OpenBLAS set to one thread per CPU, not 1, for the duration of a test,
    so that a count left pinned to 1 shows."""
    get, set_ = tensor_ops._openblas_threads()
    before = get()
    set_(tensor_ops._THREADS)
    yield tensor_ops._THREADS
    set_(before)


def models():
    for variant in ("T0", "T2"):
        base = build_variant(variant, input_size=SIZE)
        yield variant, base
        if variant == "T2":
            for mode in ("conv_dense", "conv_dw", "no_patsp", "full_sf", "no_patch"):
                yield f"{variant}-{mode}", build_ablation(base, mode)


def perturbed_store(spec, seed):
    # non-zero biases and position tables, BN away from identity
    store = init_params(spec, seed)
    rng = np.random.default_rng(seed)
    for name, t in store.tensors.items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("bias", "b1", "b2", "bq", "bk", "bv", "bo", "rpe", "beta", "mean"):
            t[...] = rng.normal(0.0, 0.2, t.shape)
        elif leaf in ("gamma", "var"):
            t[...] = rng.uniform(0.5, 1.5, t.shape)
    return store


class CountingPool:
    """Delegates to the real pool and counts the slices it was given."""

    def __init__(self, pool):
        self.pool, self.submitted = pool, 0

    def submit(self, fn, *args):
        self.submitted += 1
        return self.pool.submit(fn, *args)


MODELS = list(models())


@pytest.mark.parametrize("name,spec", MODELS, ids=[name for name, _ in MODELS])
def test_split_forward_is_bitwise_serial(monkeypatch, name, spec):
    store = perturbed_store(spec, seed=1)
    fused, _ = fuse_model(store, spec)
    rng = np.random.default_rng(2)
    counting = CountingPool(tensor_ops._POOL)
    for batch in (2, 3, 8):
        x = rng.standard_normal((batch, 3, SIZE, SIZE), dtype=np.float32)
        for s in (store, fused):
            monkeypatch.setattr(tensor_ops, "_POOL", counting)
            before = counting.submitted
            split = model_forward(spec, s, x)
            assert counting.submitted > before  # the split did run
            monkeypatch.setattr(tensor_ops, "_POOL", None)
            serial = model_forward(spec, s, x)
            assert split.tobytes() == serial.tobytes(), (name, batch, s.fused)


def test_blas_threads_restored_after_a_batched_forward(blas_at_cpu_count):
    spec = build_variant("T0", input_size=SIZE)
    store = init_params(spec, seed=0)
    x = np.zeros((2, 3, SIZE, SIZE), np.float32)
    prior = blas_threads()
    assert prior == blas_at_cpu_count > 1
    model_forward(spec, store, x)
    assert blas_threads() == prior
    model_forward(spec, store, x[:1])  # batch 1 never touches BLAS
    assert blas_threads() == prior


def test_blas_threads_restored_when_a_kernel_raises(monkeypatch, blas_at_cpu_count):
    spec = build_variant("T0", input_size=SIZE)
    store = init_params(spec, seed=0)
    x = np.zeros((2, 3, SIZE, SIZE), np.float32)
    model_forward(spec, store, x)  # build the plan first
    prior, seen = blas_threads(), []
    assert prior == blas_at_cpu_count > 1

    def failing(*args):
        seen.append(blas_threads())
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(tensor_ops, "activation", failing)
    with pytest.raises(RuntimeError, match="kernel failed"):
        model_forward(spec, store, x)
    assert seen == [1]
    assert blas_threads() == prior
    assert tensor_ops._split_thread is None


def test_public_functions_run_only_on_the_calling_thread(monkeypatch):
    # A per-layer tracer keeps one span stack for the calling thread, so no
    # public kernel or block may run on a pool thread.
    spec = build_variant("T2", input_size=SIZE)
    store, _ = fuse_model(perturbed_store(spec, seed=3), spec)
    x = np.random.default_rng(4).standard_normal((8, 3, SIZE, SIZE), dtype=np.float32)
    model_forward(spec, store, x)

    callers = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            callers.append((fn.__name__, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapper

    wrappers = {}
    for mod in (tensor_ops, blocks):
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                wrappers[obj] = recording(obj)
    for mod in [m for k, m in list(sys.modules.items()) if k.startswith("patnet.")]:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                monkeypatch.setattr(mod, name, wrappers[obj])
    counting = CountingPool(tensor_ops._POOL)
    monkeypatch.setattr(tensor_ops, "_POOL", counting)

    model_forward(spec, store, x)
    names = {name for name, _ in callers}
    assert {"conv2d", "relu", "channel_stats", "pat_ch_forward", "pat_sf_forward",
            "apply_spatial_gate"} <= names
    assert counting.submitted > 0
    assert {ident for _, ident in callers} == {threading.get_ident()}


def test_concurrent_batched_forwards_stay_correct(blas_at_cpu_count):
    # more callers than cores, with frequent thread switches
    spec = build_variant("T0", input_size=SIZE)
    store, _ = fuse_model(perturbed_store(spec, seed=5), spec)
    inputs = [np.random.default_rng(i).standard_normal((3, 3, SIZE, SIZE), dtype=np.float32)
              for i in range(4)]
    expected = [model_forward(spec, store, x) for x in inputs]
    prior = blas_threads()
    assert prior == blas_at_cpu_count > 1
    results = [None] * len(inputs)

    def run(i):
        for _ in range(3):
            results[i] = model_forward(spec, store, inputs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert got is not None and got.tobytes() == want.tobytes()
    assert blas_threads() == prior


def logits_digests(variant: str, batches) -> dict:
    """sha256 of the logits of ``variant`` at 224 x 224, unfused and fused,
    for each batch size in ``batches``."""
    spec = build_variant(variant)
    store = perturbed_store(spec, seed=6)
    x = np.random.default_rng(7).standard_normal((max(batches), 3, 224, 224),
                                                 dtype=np.float32)
    return {f"{s.fused}/{n}": hashlib.sha256(model_forward(spec, s, x[:n]).tobytes()).hexdigest()
            for s in (store, fuse_model(store, spec)[0]) for n in batches}


# A child process pinned to one CPU before it imports patnet has one engine
# thread: no pool, no batch split, and chunks sized for one thread
_PINNED_CHILD = """
import json, os, sys
os.sched_setaffinity(0, [{cpu}])
sys.path[:0] = [{src!r}, {tests!r}]
from patnet import tensor_ops
from test_batch_split import logits_digests
assert tensor_ops._THREADS == 1
print(json.dumps(logits_digests({variant!r}, {batches!r})))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
@pytest.mark.parametrize("variant,batches", [("T0", (1,)), ("T0", (3,)), ("T2", (8,))])
def test_logits_do_not_depend_on_the_cpu_count(variant, batches):
    cpu = min(os.sched_getaffinity(0))
    code = _PINNED_CHILD.format(cpu=cpu, variant=variant, batches=batches,
                                src=str(Path(patnet.__file__).parents[1]),
                                tests=str(Path(__file__).parent))
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           timeout=300, check=True)
    assert json.loads(child.stdout) == logits_digests(variant, batches)
