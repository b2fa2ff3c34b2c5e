"""Sparse approximate matrix multiply (SpAMM) for matrices with decay.

Matrices are stored as columnar quadtrees: a stack of n_b x n_b
single-precision leaf blocks (n_b = 64 unless given) with their Frobenius
norms and 4x4 sub-block norms.  A multiply first runs a symbolic phase that
sorts leaf keys and prunes block products whose norm product falls below a
tolerance tau, then a numeric phase that executes the surviving products,
gating each 4x4x4 micro product by its 4x4 sub-block norms.  That gate
decides the work: the fine4 product is the same, bit for bit, at every n_b,
and the leaf size only sets how the work is scheduled.
"""

from .core import DenseMatrix, QuadtreeMatrix, tree_depth
from .generators import KINDS, GeneratorSpec, envelope, generate
from .io import (
    MatrixFormatError,
    load_matrix,
    load_quadtree,
    save_matrix,
    save_quadtree,
)
from .morton import c_index, decode, encode, k_of_a, k_of_b
from .numeric import (
    ExecCounters,
    MultiplyConfig,
    execute_plan,
    execute_plan_dense_leaf,
    multiply,
)
from .reference import (
    ErrorReport,
    dense_multiply_double,
    dense_multiply_single,
    effective_performance,
    flop_model,
    max_norm_error,
)
from .symbolic import MultiplyPlan, PlanStats, ProductTask, build_plan

__version__ = "0.1.0"
