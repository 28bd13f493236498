"""Neural-network substrate: autodiff, layers, transformer LM, training."""

from .bf16 import bf16_round
from .functional import cross_entropy, gelu, log_softmax, rmsnorm, silu, softmax
from .layers import CausalSelfAttention, Embedding, Linear, Module, RMSNorm, SwiGLU
from .optim import Adam, clip_grad_norm
from .quantize import BASELINE, QuantContext
from .tensor import Tensor, no_grad
from .train import train_lm
from .transformer import TransformerConfig, TransformerLM

__all__ = [
    "Tensor",
    "no_grad",
    "bf16_round",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "rmsnorm",
    "gelu",
    "silu",
    "Module",
    "Linear",
    "Embedding",
    "RMSNorm",
    "CausalSelfAttention",
    "SwiGLU",
    "Adam",
    "clip_grad_norm",
    "QuantContext",
    "BASELINE",
    "TransformerConfig",
    "TransformerLM",
    "train_lm",
]
