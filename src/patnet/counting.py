"""Exact parameter and multiply-accumulate counters.

Parameters are every tensor the store holds, which includes BN statistics
alongside the learnables (they are part of the serialized model). MACs are
those of the execution plan, whose ops carry their counts; the conventions
are stated beside ``model._conv_macs``.
"""

from __future__ import annotations

import dataclasses
import math

from .config import ModelSpec, check_extent
from .model import iter_param_schema, plan_and_schema


def count_params(spec: ModelSpec, fused: bool = False) -> int:
    """Total stored scalars; equals the element count of an init store."""
    return sum(math.prod(d.shape) for d in iter_param_schema(spec, fused))


def count_flops(spec: ModelSpec, hw: tuple[int, int] = (224, 224),
                fused: bool = False) -> int:
    """MACs of one sample at input extent ``hw``."""
    check_extent(*hw)
    spec = dataclasses.replace(spec, input_hw=tuple(hw))
    return plan_and_schema(spec, fused)[0].macs
