"""Sparse approximate matrix multiply (SpAMM) for matrices with decay.

Matrices are stored as columnar quadtrees: a stack of 16x16 single-precision
leaf blocks with their Frobenius norms and 4x4 sub-block norms.  A multiply
first runs a symbolic phase that sorts leaf keys and prunes block products
whose norm product falls below a tolerance tau, then a numeric phase that
executes the surviving products, gating each 4x4x4 micro product by its
4x4 sub-block norms.
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
