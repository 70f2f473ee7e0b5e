"""Exact computational topology for 3-manifold group presentations.

Integer Smith normal form and CW homology, multivariable Laurent arithmetic,
Fox calculus and twisted Alexander polynomials, Alexander-norm audits, a
fibredness certificate in the style of the Friedl-Vidussi criterion, exact
Clifford-algebra verification, and intersection-form diagnostics.
"""

from .exactalg import (ChainComplex, ExactSequenceData, HomologyGroup,
                       IntMatrix, MapData, SmithDecomposition, all_homology,
                       exact_sequence_solve, homology, smith_normal_form)
from .laurent import (MINUS_INFINITY, LaurentPoly, UnitClass, laurent_degree,
                      lp_gcd, is_monic, normalize_unit, parse_poly,
                      render_poly, specialize, symmetric_representative)
from .grouppres import (ClassMap, FiniteQuotient, Presentation, abelianize,
                        cyclic_group, dihedral_group, enumerate_epimorphisms,
                        fox_derivative, fox_jacobian, free_reduce, parse_word,
                        pullback_class, reidemeister_schreier, symmetric_group,
                        trivial_group)
from .twistedalex import (TwistData, TwistedPoly, multivariable_alexander,
                          trivial_twist, twist_ring_map, twisted_alexander)
from .normsfibred import (FibredCertificate, NormReport, alexander_norm,
                          degree_case_analysis, divisibility,
                          fibred_certificate, mcmullen_check,
                          norm_relation_check)
from .clifford import (CliffordElement, ExactMatrix, GaussianRational,
                       hodge_star, mu_map, projector, verify_all, verify_iso,
                       volume_element)
from .fourman import (FormData, SurfaceEntry, adjunction_check,
                      evenness_check, lagrangian_square_check)

__version__ = "0.1.0"
