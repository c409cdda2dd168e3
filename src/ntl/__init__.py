"""Finite-group engine for non-abelian tensor products, coset enumeration,
and the homotopy-group invariants they compute."""

from .abelian import AbelianInvariants, abelian_invariants, smith_diagonal
from .catalog import (CATALOG_CORPUS, CatalogEntry, catalog_entries,
                      catalog_lookup, realize_entry, realize_name)
from .coset import (CosetTable, EnumerationBudget, EnumerationStats,
                    enumerate_cosets, realize_presentation,
                    regular_representation)
from .errors import (BudgetExceeded, CapExceeded, IncompleteMap, Incompatible,
                     InternalInconsistency, MixedParents, NotAbelian,
                     NotActionHomomorphism, NotAutomorphism,
                     NotGeneratingPair, NotNormal, NtlError,
                     PresentationSyntaxError, Undecided, UnknownCatalogName,
                     UnknownGenerator)
from .groups import (Homomorphism, RealizedGroup, Subgroup, closure,
                     commutator_subgroup, derived_subgroup, intersection,
                     presentation_invariants, section_invariants,
                     subgroup_as_group, subgroup_exponent, trivial_group)
from .homotopy import (BoundReport, bound_pushout_pi3, bound_theorem_A,
                       bound_theorem_B, burnside_exponent_check,
                       finiteness_report, pi3_suspension_K, pushout_EM,
                       schur_multiplier, stable_pi2_K, theoremC_report,
                       three_connected_check, wedge_pi3)
from .parsing import (ActionSpec, parse_file, parse_words_text, print_action,
                      print_presentation)
from .report import serialize_report
from .tensor import (CompatibleActionPair, EtaRealization,
                     TensorRealization, build_direct, build_eta, build_nu,
                     conjugation_pair, delta, delta_tilde, j2, tensor_direct,
                     tensor_set, trivial_pair, validate_compatibility)
from .words import Presentation, Word, commutator, conjugate

__version__ = "0.1.0"
