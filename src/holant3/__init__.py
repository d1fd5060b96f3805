"""Exact toolkit for Holant problems of the form (ternary signature | ternary
equality) on 3-regular bipartite graphs: dichotomy classification, exact
partition functions, gadget machinery, interpolation, and the planar
matchgate pipeline."""

from .exact import QuadExt, frac, sqrt_exact
from .signatures import (
    EQ3,
    JordanData,
    Mat2,
    SymSig,
    Tensor,
    hadamard_transform,
    is_degenerate,
    jordan,
    matrix_power,
    normalize,
    reverse,
    straddled_from_f,
    sym_to_tensor,
)
from .grid import SignatureGrid, bipartite_grid, check_arity_mod3, contract, holant
from .gadgets import (
    build_double_hub_gadget,
    build_transfer_chain,
    build_transfer_gadget,
    build_unary_probe,
    gadget_search,
)
from .dichotomy import (
    classify_binary23,
    classify_ternary,
    verify_case_identities,
    verify_factorization_identity,
)
from .interp import (
    degenerate_target,
    interpolate_holant_with_d,
    interpolate_unary,
    split_reduction,
)
from .tractable import TractableInstance, solve, solve_affine, solve_degenerate, solve_gen_equality
from .planar import (
    PlanarMultigraph,
    count_pm,
    enumerate_pm,
    kasteleyn_orient,
    pfaffian,
)
from .matchgates import (
    EmbeddedGrid,
    Matchgate,
    crossing_gate,
    equality_gate,
    holographic_reduce,
    matchgate_signature,
    solve_planar_moderate_cover,
)
from .x3c import brute_force_exact_covers, count_exact_covers, rx3c_to_grid

__version__ = "0.1.0"
