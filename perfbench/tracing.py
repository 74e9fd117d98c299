"""Span tracing installed from outside the engine.

``Tracer.install`` replaces every public function of the traced patnet
modules with a wrapper that records one span per call: name, start, end,
parent span and request id. The wrapper is bound in every patnet namespace
that binds the original, because ``blocks`` imports kernels with
``from ... import`` while ``model`` and ``fusion`` call ``T.conv2d``.
``Tracer.restore`` puts the originals back and reports whether any wrapper is
left. Spans stay in memory until ``write`` dumps them.

Work counts (MACs, elements, bytes) are computed from tensor shapes at the
span boundary, never measured.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("tensor_ops", "blocks", "model", "fusion", "weights", "imageio")

# Functions whose spans count as one layer in the metrics. A span nested in
# a span of its own group (gelu inside activation) adds its self time to the
# group but is not counted again as a call.
GROUPS = {
    "tensor_ops.relu": "tensor_ops.activation",
    "tensor_ops.gelu": "tensor_ops.activation",
    "tensor_ops.sigmoid": "tensor_ops.gate_fns",
    "tensor_ops.hard_sigmoid": "tensor_ops.gate_fns",
    "blocks.pat_sp_forward": "blocks.spatial_gate",
    "blocks.apply_spatial_gate": "blocks.spatial_gate",
    "blocks.relative_index_grid": "blocks.attention_bias",
}

_MARK = "__perfbench_original__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def conv_class(p) -> str:
    """Kernel class of a ``ConvParams``: strided, 3x3, 1x1 or other."""
    if p.stride > 1:
        return "tensor_ops.conv2d_strided"
    if p.kh == p.kw == 3:
        return "tensor_ops.conv2d_k3"
    if p.kh == p.kw == 1:
        return "tensor_ops.conv2d_k1"
    return "tensor_ops.conv2d_other"


def _conv_counts(args, kwargs, out):
    x, p = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "p")
    return {"macs": out.size * p.weight[0].size,
            "bytes": x.nbytes + p.weight.nbytes + out.nbytes}


def _elements(args, kwargs, out):
    return {"elements": _arg(args, kwargs, 0, "x").size}


def _concat_bytes(args, kwargs, out):
    x_p, x_u = _arg(args, kwargs, 0, "x_p"), _arg(args, kwargs, 1, "x_u")
    return {"bytes_copied": 0 if out is x_p or out is x_u else out.nbytes}


def _pixels_in(args, kwargs, out):
    return {"pixels_in": out.shape[2] * out.shape[3]}


def _loaded_bytes(args, kwargs, out):
    return {"file_bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _saved_bytes(args, kwargs, out):
    return {"file_bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# name -> function computing the span's counters from (args, kwargs, result)
COUNTERS = {
    "tensor_ops.conv2d": _conv_counts,
    "tensor_ops.activation": _elements,
    "tensor_ops.relu": _elements,
    "tensor_ops.gelu": _elements,
    "blocks.channel_concat": _concat_bytes,
    "imageio.load_ppm": _pixels_in,
    "weights.load_weights": _loaded_bytes,
    "weights.save_weights": _saved_bytes,
}


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, request id, counters)
        self.spans: list = []
        self.errors: dict[str, int] = {m: 0 for m in TRACED_MODULES}
        self.request = "setup"
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, layer: str, qualname: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counter = COUNTERS.get(qualname)
        is_conv = qualname == "tensor_ops.conv2d"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            name = conv_class(_arg(args, kwargs, 1, "p")) if is_conv else qualname
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                self.errors[layer] += 1
                spans[idx] = (name, t0, t1, parent, self.request, None)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.request,
                          counter(args, kwargs, out) if counter else None)
            return out

        setattr(traced, _MARK, fn)
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in TRACED_MODULES:
            mod = sys.modules[f"patnet.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(layer, f"{layer}.{name}", obj)
        for mod in _patnet_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is bound anywhere."""
        for mod, name, fn in self._patched:
            setattr(mod, name, fn)
        ok = all(getattr(mod, name) is fn for mod, name, fn in self._patched)
        self._patched = []
        return ok and not any(inspect.isfunction(obj) and hasattr(obj, _MARK)
                              for mod in _patnet_modules()
                              for obj in vars(mod).values())

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request", "counters"],
                       "spans": self.spans, "errors": self.errors}, fh)


def _patnet_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "patnet" or k.startswith("patnet."))]


def layer_totals(spans) -> dict:
    """request -> group -> {"self_ns", "ns", "calls", <counters>}.

    Self time is a span's duration minus the durations of its direct child
    spans (calls are sequential on one thread, so children never overlap).
    ``ns`` and ``calls`` cover spans whose parent is in another group.
    """
    child_ns = [0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    groups = [GROUPS.get(s[0], s[0]) for s in spans]
    out: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
    for i, (name, t0, t1, parent, request, counters) in enumerate(spans):
        agg = out[request][groups[i]]
        agg["self_ns"] += t1 - t0 - child_ns[i]
        if parent >= 0 and groups[parent] == groups[i]:
            continue
        agg["ns"] += t1 - t0
        agg["calls"] += 1
        for key, value in (counters or {}).items():
            agg[key] += value
    return out


def exact_counts(totals: dict, requests) -> dict:
    """Every whole-number count, summed over ``requests``; two traced passes
    over the same inputs must give identical dictionaries."""
    counts: dict = defaultdict(int)
    for r in requests:
        for group, agg in totals[r].items():
            for key, value in agg.items():
                if key not in ("self_ns", "ns"):
                    counts[f"{group}.{key}"] += value
    return dict(counts)
