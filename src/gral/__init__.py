"""Z-graded rings over small finite coefficient rings.

Leavitt and relative Cohn path algebras of finite directed graphs, corner
skew Laurent polynomial rings, constructive graded von Neumann regularity
witnesses, grading classification and the degree-zero matricial
decomposition, all over exact finite coefficient rings.
"""

from .coeffring import (MatrixOverRing, ModularRing, ProductRing, Ring,
                        TableRing, is_semiprime_ring, is_vnr,
                        jacobson_radical, matrix_vnr_witness, ring_make,
                        solve_linear_system, vnr_witness)
from .graphs import (CohnPair, Graph, GraphMorphism, Path, cohn_cover,
                     graph_from_dict, morphism_validate)
from .pathalg import (AlgebraElement, AlgebraSpec, Monomial,
                      filtration_level, matricial_decompose, matricial_lift,
                      normal_form, reduced_monomials, word_element)

__all__ = [
    "AlgebraElement", "AlgebraSpec", "CohnPair", "Graph", "GraphMorphism",
    "MatrixOverRing", "ModularRing", "Monomial", "Path", "ProductRing",
    "Ring", "TableRing", "cohn_cover", "filtration_level", "graph_from_dict",
    "is_semiprime_ring", "is_vnr", "jacobson_radical",
    "matricial_decompose", "matricial_lift", "matrix_vnr_witness",
    "morphism_validate", "normal_form", "reduced_monomials", "ring_make",
    "solve_linear_system", "vnr_witness", "word_element",
]
