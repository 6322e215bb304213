"""maxcurves: exact-arithmetic verification of three maximal curves
over small finite fields, their Weierstrass semigroups and order
sequences."""

__version__ = "0.1.0"

from .gf import (FieldElement, FieldSpec, enumerate_field, is_in_subfield,
                 make_field, nth_roots, root_logs)
from .numsg import (NumericalSemigroup, OrderSequence, contains,
                    frobenius_dimension_from_semigroup, nongaps_upto,
                    rational_point_orders, semigroup_from_generators)
from .curves import (CurveModel, Place, PlaceCensus,
                     PrincipalDivisorTable, count_fk_places, count_gk_places,
                     count_gsx49_places, divisor_of_monomial, fk_curve,
                     genus_fk, genus_gk, genus_gsx, genus_plane_smooth,
                     gk_curve, gsx49_curve, hermitian_affine_points,
                     maximal_N, weierstrass_nongaps_from_monomials)
from .verify import (CheckResult, VerificationReport, allowed_j2_values,
                     castelnuovo_bound, check_maximal,
                     deduce_epsilon_sequence, deduce_frobenius_dimension,
                     padic_admissible, theorem_report, weierstrass_weight)

__all__ = [name for name in dir() if not name.startswith("_")]
