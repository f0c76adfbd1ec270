"""Integer Khovanov homology of link diagrams, ladder patterns and
explicit order-two torsion certificates.

The pipeline: build or parse an oriented link diagram (`diagram`),
smooth Kauffman states into circles-with-scars and enhance them
(`smoothing`), differentiate and assemble boundary matrices
(`chaincomplex`), compute integral homology and solve exactness over
the integers (`homology`), detect blue ladders and check the torsion
hypotheses (`ladders`), and construct and certify the explicit
order-two torsion chains (`torsion`).
"""

from .diagram import (Crossing, Diagram, DiagramError, braid3_closure,
                      monocircular, parse_pd, pretzel, rational,
                      reorder_crossings)
from .smoothing import (Chain, EnhancedState, Smoothing, SmoothingError,
                        degrees, enumerate_states, signed_state, smooth,
                        state_A, state_B)
from .chaincomplex import (SparseIntMatrix, boundary_matrix, differential,
                           incidence)
from .homology import (KhovanovTable, NotACycleError, SizeGuardError,
                       class_order, homology_at, is_exact, khovanov_table,
                       smith_normal_form)
from .ladders import (HypothesisReport, Ladder, LadderError, break_ladders,
                      check_hypotheses, detect_ladders,
                      ladder_first_permutation, periphery_number)
from .torsion import (BoundReport, EvenModule, EvenModuleError, Grid,
                      HypothesisRejected, RationalTorsionResult,
                      TorsionCertificate, TorsionError, admissible_classes,
                      admissible_mu, all_even_tuples, build_even_module,
                      certify_not_exact, certify_torsion, chain_V, chain_X,
                      compare_with_monocircular, family_lower_bound, grid,
                      mono_vs_mono, monocircular_V, rational_torsion_exists,
                      same_class, state_sum, verify_dX_2V, verify_evenness)

__version__ = "0.1.0"

__all__ = [
    "Chain", "Crossing", "Diagram", "DiagramError", "EnhancedState",
    "EvenModule", "EvenModuleError", "Grid", "HypothesisRejected",
    "HypothesisReport", "KhovanovTable", "Ladder", "LadderError",
    "NotACycleError", "RationalTorsionResult", "SizeGuardError",
    "Smoothing", "SmoothingError", "SparseIntMatrix", "BoundReport",
    "TorsionCertificate", "TorsionError",
    "admissible_classes", "admissible_mu", "all_even_tuples",
    "boundary_matrix", "braid3_closure", "break_ladders",
    "build_even_module", "certify_not_exact", "certify_torsion",
    "chain_V", "chain_X", "check_hypotheses", "class_order",
    "compare_with_monocircular", "degrees", "detect_ladders",
    "differential", "enumerate_states", "family_lower_bound", "grid",
    "homology_at", "incidence", "is_exact",
    "khovanov_table", "ladder_first_permutation", "mono_vs_mono",
    "monocircular", "monocircular_V", "parse_pd", "periphery_number",
    "pretzel", "rational", "rational_torsion_exists", "reorder_crossings",
    "same_class", "signed_state", "smith_normal_form", "smooth",
    "state_A", "state_B", "state_sum", "verify_dX_2V", "verify_evenness",
]
