"""A forward runs on the calling thread: it starts no thread, leaves
OpenBLAS's thread count alone, and keeps no state that concurrent callers
or a fork must wait on."""

import ctypes
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

SIZE = 64  # bitwise equality does not depend on the extent; keeps the runs short


def blas_threads() -> int | None:
    get = tensor_ops._openblas_threads()
    return get() if get else None


def _openblas_setter():
    try:
        from numpy._core import _multiarray_umath
        set_ = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return set_


@pytest.fixture
def blas_at_cpu_count():
    """OpenBLAS set to one thread per CPU for the duration of a test, so
    that its GEMMs run threaded and a count the forward changed shows."""
    set_ = _openblas_setter()
    cpus = os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    if set_ is None or blas_threads() is None or cpus < 2:
        pytest.skip("needs two CPUs and an OpenBLAS whose thread count can be set")
    before = blas_threads()
    set_(cpus)
    yield cpus
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


MODELS = list(models())


@pytest.mark.parametrize("name,spec", MODELS, ids=[name for name, _ in MODELS])
def test_batched_rows_are_bitwise_their_batch_1_forward(name, spec):
    # every variant and ablation, unfused and fused: an image's logits do
    # not depend on the batch it is sent in
    store = perturbed_store(spec, seed=1)
    fused, _ = fuse_model(store, spec)
    x = np.random.default_rng(2).standard_normal((8, 3, SIZE, SIZE), dtype=np.float32)
    for s in (store, fused):
        single = [model_forward(spec, s, x[i : i + 1]).tobytes() for i in range(8)]
        for n in (2, 3, 8):
            rows = model_forward(spec, s, x[:n])
            assert [rows[i : i + 1].tobytes() for i in range(n)] == single[:n], (
                name, n, s.fused)


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("kernel", ["conv2d", "activation"])
def test_a_kernel_error_reaches_the_caller_and_leaves_no_state(monkeypatch, blas_at_cpu_count,
                                                               kernel, batch):
    spec = build_variant("T0", input_size=SIZE)
    store = init_params(spec, seed=0)
    x = np.random.default_rng(10).standard_normal((batch, 3, SIZE, SIZE), dtype=np.float32)
    want = model_forward(spec, store, x)  # builds the plan too
    before = threading.enumerate()

    def failing(*args):
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(tensor_ops, kernel, failing)
    with pytest.raises(RuntimeError, match="kernel failed"):
        model_forward(spec, store, x)
    monkeypatch.undo()
    assert blas_threads() == blas_at_cpu_count
    assert threading.enumerate() == before
    assert model_forward(spec, store, x).tobytes() == want.tobytes()


def test_a_batched_forward_starts_no_thread_and_leaves_blas_alone(monkeypatch,
                                                                  blas_at_cpu_count):
    spec = build_variant("T2", input_size=SIZE)
    store, _ = fuse_model(perturbed_store(spec, seed=8), spec)
    x = np.random.default_rng(9).standard_normal((8, 3, SIZE, SIZE), dtype=np.float32)
    started, real_start = [], threading.Thread.start
    inside, real_conv2d = [], tensor_ops.conv2d

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    def conv2d(*args):  # the BLAS thread count the forward's GEMMs run at
        inside.append(blas_threads())
        return real_conv2d(*args)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(tensor_ops, "conv2d", conv2d)
    before = threading.enumerate()
    for n in (1, 2, 8):
        model_forward(spec, store, x[:n])
        assert blas_threads() == blas_at_cpu_count
    assert inside and set(inside) == {blas_at_cpu_count}
    assert started == [] and threading.enumerate() == before


def test_public_functions_run_only_on_the_calling_thread(monkeypatch):
    # A per-layer tracer keeps one span stack for the calling thread, so no
    # public kernel or block may run on another thread.
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

    model_forward(spec, store, x)
    names = {name for name, _ in callers}
    assert {"conv2d", "relu", "channel_stats", "pat_ch_forward", "pat_sf_forward",
            "apply_spatial_gate"} <= names
    assert {ident for _, ident in callers} == {threading.get_ident()}


def test_concurrent_batched_forwards_stay_correct(blas_at_cpu_count):
    # more callers than cores, with frequent thread switches, all running
    # their forwards at once, each with threaded GEMMs
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


# A child process pinned to one CPU before it imports numpy, whose OpenBLAS
# then runs its GEMMs on one thread
_PINNED_CHILD = """
import json, os, sys
os.sched_setaffinity(0, [{cpu}])
sys.path[:0] = [{src!r}, {tests!r}]
from test_batch_split import logits_digests
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


# A parent process loops batch-4 forwards on a second thread and forks while
# that thread is inside a forward, held there until the fork is done. The
# child, under a watchdog, reports OpenBLAS's thread count and its own
# batched forward's digest
_FORK_DURING_A_FORWARD = """
import hashlib, json, os, signal, sys, threading
sys.path[:0] = [{src!r}]
import numpy as np
from patnet import tensor_ops
from patnet.config import build_variant
from patnet.model import init_params, model_forward

spec = build_variant("T0", input_size=64)
store = init_params(spec, seed=0)
x = np.random.default_rng(1).standard_normal((4, 3, 64, 64), dtype=np.float32)
digest = lambda: hashlib.sha256(model_forward(spec, store, x).tobytes()).hexdigest()
get_blas = tensor_ops._openblas_threads() or (lambda: None)
want, blas = digest(), get_blas()
inside, forked, stop = threading.Event(), threading.Event(), threading.Event()
real_conv2d = tensor_ops.conv2d


def conv2d(*args):
    if not inside.is_set():  # the loop's first call waits here for the fork
        inside.set()
        forked.wait()
    return real_conv2d(*args)


def forwards():
    while not stop.is_set():
        digest()


tensor_ops.conv2d = conv2d
loop = threading.Thread(target=forwards)
loop.start()
inside.wait()
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(20)  # a hung child dies of SIGALRM
    report = {{"blas": get_blas(), "digest": digest()}}
    os.write(w, json.dumps(report).encode())
    os._exit(0)
os.close(w)
forked.set()
stop.set()
loop.join()
with os.fdopen(r) as f:
    child = f.read()
print(json.dumps({{"status": os.waitpid(pid, 0)[1], "child": child,
                   "blas": blas, "digest": want}}))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_fork_during_a_batched_forward_leaves_a_working_child():
    code = _FORK_DURING_A_FORWARD.format(src=str(Path(patnet.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    got = json.loads(run.stdout)
    assert got["status"] == 0, got  # not killed by the watchdog
    child = json.loads(got["child"])
    assert child == {"blas": got["blas"], "digest": got["digest"]}
