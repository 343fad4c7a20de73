"""Exact invariants of crystallographic groups Z^n x| Z/p.

The library computes group (co)homology, topological K/KO/ko-theory of the
classifying space and the torus orbit space, and the K-theory of the
reduced group C*-algebras, with every value produced by exact integer
arithmetic and cross-checkable against brute-force linear-algebra oracles.
"""

from .abelian import (GroupExpression, FreeZ, CyclicPrimePower, PAdic,
                      Pruefer, KOPoint, KoPoint, UnknownPTorsion, hom_dual,
                      ext_dual, expr_evaluate)
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
from .repring import lambda_class, r_m, a_j, s_m
from .zpmod import (ZpModule, make_trivial, make_regular, make_cyclotomic,
                    exterior_power, tensor, dual, tate, tate_reference,
                    coinvariants)

__all__ = [name for name in dir() if not name.startswith("_")]
