"""Exact character tables and centre-structure analysis for finite groups."""

from .errors import (ConsistencyError, HypothesisNotMet, InputError,
                     NotNilpotent, ResourceError, TheoremViolation)
from .groups import (Group, QuotientMap, Subgroup, build_group, centralizer,
                     commutator_subgroup, coset, enumerate_from_permutations,
                     generated_by, is_normal, nilpotency_class,
                     perm_from_cycles, quotient)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi, root_of_unity
from .chartable import (Character, CharacterTable, char_center,
                        character_table, character_tables, decompose,
                        deflate, degree_set, dixon_prime, induce,
                        inner_product, kernel, lift, restrict)
from .constructions import (cyclic, direct_product, elementary_abelian,
                            from_spec, gn, heisenberg, named,
                            predicted_centres)
from .gvz import (centre_census, fiber_count, irr_star, is_gcp, is_gvz,
                  unique_nonlinear_constituent, verify_all, verify_claim,
                  verify_coset_criterion, verify_fiber_theorem,
                  verify_identity_suite, verify_p4_criterion)

__version__ = "0.1.0"

__all__ = [
    "Character", "CharacterTable", "ConsistencyError", "Cyclotomic", "Group",
    "HypothesisNotMet", "InputError", "NotNilpotent", "QuotientMap",
    "ResourceError", "Subgroup", "TheoremViolation", "build_group",
    "centralizer", "centre_census", "char_center", "character_table",
    "character_tables", "commutator_subgroup", "coset", "cyclic",
    "cyclotomic_polynomial", "decompose", "deflate", "degree_set",
    "direct_product", "dixon_prime", "elementary_abelian",
    "enumerate_from_permutations", "euler_phi", "fiber_count", "from_spec",
    "generated_by", "gn", "heisenberg", "induce", "inner_product", "irr_star",
    "is_gcp", "is_gvz", "is_normal", "kernel", "lift", "named",
    "nilpotency_class", "perm_from_cycles", "predicted_centres", "quotient",
    "restrict", "root_of_unity", "unique_nonlinear_constituent", "verify_all",
    "verify_claim", "verify_coset_criterion", "verify_fiber_theorem",
    "verify_identity_suite", "verify_p4_criterion",
]
