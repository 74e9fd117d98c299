"""CPU inference engine and verification harness for the PATNet family."""

from .blocks import (
    PartialSplit,
    PatChParams,
    PatSfParams,
    PatSpParams,
    channel_split,
    gaussian_se_gate,
    pat_ch_forward,
    pat_sf_forward,
    pat_sp_forward,
    pconv_forward,
)
from .config import (
    ABLATION_MODES,
    ModelSpec,
    build_ablation,
    build_spec,
    build_variant,
)
from .counting import count_flops, count_params
from .fusion import FusionError, FusionReport, fold_bn, fuse_model, merge_patsp
from .gradcheck import GradReport, block_vjp, finite_diff_grad, gradcheck_block
from .model import ParamStore, init_params, model_forward
from .tensor_ops import (
    BnParams,
    ConvParams,
    ShapeError,
    activation,
    batch_norm_infer,
    channel_stats,
    conv2d,
    global_avg_pool,
    matmul,
    softmax_rows,
)
from .weights import load_weights, save_weights

__all__ = [
    "ABLATION_MODES",
    "BnParams",
    "ConvParams",
    "FusionError",
    "FusionReport",
    "GradReport",
    "ModelSpec",
    "ParamStore",
    "PartialSplit",
    "PatChParams",
    "PatSfParams",
    "PatSpParams",
    "ShapeError",
    "activation",
    "batch_norm_infer",
    "block_vjp",
    "build_ablation",
    "build_spec",
    "build_variant",
    "channel_split",
    "channel_stats",
    "conv2d",
    "count_flops",
    "count_params",
    "finite_diff_grad",
    "fold_bn",
    "fuse_model",
    "gaussian_se_gate",
    "global_avg_pool",
    "gradcheck_block",
    "init_params",
    "load_weights",
    "matmul",
    "merge_patsp",
    "model_forward",
    "pat_ch_forward",
    "pat_sf_forward",
    "pat_sp_forward",
    "pconv_forward",
    "save_weights",
    "softmax_rows",
]

__version__ = "0.1.0"
