"""graphfilt: graph filters and graph neural networks from first principles.

Sparse shift-operator kernels, the full linear filter families
(edge-varying, convolutional, block, hybrid, rational), spectral analysis
tools, attention-built shifts, a tape-based gradient engine, and an
experiment harness with a CLI.
"""
from . import attention, errors, filters, graphs, harness, linalg, nn, \
    sparse, spectral
from .errors import GraphFiltError
from .graphs import Graph, build_shift, diffusion_centrality, is_connected, \
    sbm_generate, select_nodes
from .sparse import Pattern, Permutation, SparseMatrix, \
    permute_shift, permute_signal, power_iteration_lambda_max, spmm, spmv, \
    support_mask

__version__ = "0.1.0"

__all__ = [
    "Graph", "GraphFiltError", "Pattern", "Permutation", "SparseMatrix",
    "attention", "build_shift", "diffusion_centrality", "errors", "filters",
    "graphs", "harness", "is_connected", "linalg", "nn", "permute_shift",
    "permute_signal", "power_iteration_lambda_max", "sbm_generate",
    "select_nodes", "sparse", "spectral", "spmm", "spmv", "support_mask",
]
