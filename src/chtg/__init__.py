"""Complex hyperbolic triangle groups: traces, classification, thresholds."""

from .analysis import (Certificate, NotInFamily, ScanBlock, Thresholds,
                       alpha_of_t, bisect, family_membership,
                       family_quartic, family_type,
                       non_discreteness_certificate, rho_123_weighted,
                       scan_elliptic, t_of_alpha, t_of_cos, thresholds)
from .arithmetic import (BasisRingVerdict, GroupWithRotation,
                         IllConditionedBasis, IntegralityVerdict, MostowGroup,
                         basis_ring_check, group_ring_check,
                         group_with_rotation, integer_ring_check, mostow_group)
from .classify import (BOUNDARY_NON_UNIPOTENT, HYPERBOLIC, INDETERMINATE,
                       REGULAR_ELLIPTIC, UNIPOTENT, IsometryClass,
                       discriminant)
from .linalg import boxtimes, herm, rank_one
from .traces import (CapExceeded, TracePolynomial, TraceValue,
                     ZeroRadiusUnsupported, sigma_closed, sigma_word,
                     tau_123_closed, trace_combinatorial,
                     trace_mu, trace_mu_combinatorial, trace_oracle,
                     trace_polynomial, trace_recursive)
from .triangle import (DegenerateNormalization, ExistenceViolation,
                       IdealVertexDegenerate, TriangleParams,
                       TriangleRealization, brehm_sigma, cartan_invariant,
                       hakim_sandler_eta, mu_reflection, realize,
                       reflection)
from .words import canonical, enumerate_words, parse_word, winding, word_to_str

__version__ = "0.1.0"
