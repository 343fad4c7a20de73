"""Exact invariants of crystallographic groups Z^n x| Z/p.

The library computes group (co)homology, topological K/KO/ko-theory of the
classifying space and the torus orbit space, and the K-theory of the
reduced group C*-algebras, with every value produced by exact integer or
rational arithmetic and cross-checkable against brute-force linear-algebra
oracles.
"""

from .abelian import (FGAbelianGroup, GroupExpression, FreeZ,
                      CyclicPrimePower, PAdic, Pruefer, KOPoint, KoPoint,
                      UnknownPTorsion, direct_sum, hom_dual, ext_dual,
                      ko_point_table, expr_evaluate, parse_expression)
from .crystal import (GammaDescriptor, GammaError, NotPrimeError,
                      WrongOrderError, NotFreeError, BadRankError,
                      CokernelMismatchError, OddPrimeRequiredError,
                      validate_gamma, canonical_gamma, build_report,
                      finite_subgroup_data, abelianization,
                      euler_characteristic_quotient, cohomology_bgamma,
                      homology_bgamma, cohomology_quotient,
                      homology_quotient, k_theory_bgamma, k_theory_quotient,
                      ko_theory, cstar_k_theory, connective_ko,
                      equivariant_k, equivariant_ko,
                      equivariant_exact_sequences,
                      brute_force_cohomology_bgamma, TheoremReport)
from .repring import RepClass, lambda_class, lambda_class_total, r_m, a_j, s_m
from .zpmod import (ZpModule, make_trivial, make_regular, make_cyclotomic,
                    exterior_power, tensor, dual, tate, invariants,
                    coinvariants)

__all__ = [name for name in dir() if not name.startswith("_")]
