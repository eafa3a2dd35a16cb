"""Multi-time quantum histories on a discretized doubled time contour.

The package builds histories from fixed-point constraints over a time
grid, computes their relative weights by two independent routes, and
checks that single-measurement probabilities, family normalization and
the four branch-bundle decompositions all come out of the same machinery.
"""

__version__ = "0.1.0"

from .contour import contour_path
from .dynamics import (HamiltonianSchedule, evolve_state,
                       heisenberg_projector, propagate)
from .envariance import (BipartiteState, EnvarianceResult, SchmidtForm,
                         check_envariance, schmidt_decompose)
from .errors import (DimensionMismatchError, EnumerationGuardError,
                     ModelFormatError, QContourError, ValidationError,
                     ZeroNormalizationError)
from .histories import (FamilyReport, FamilySpec, FixedPoint, HistoryFamily,
                        HistoryOperator, QuantumHistory, chain_probability,
                        decoherence_functional, decoherence_report,
                        enumerate_family, histories_equal, history_inner,
                        history_operator, record_state, validate_family)
from .linalg import (check_unitary, complete_basis, inner, is_hermitian,
                     is_orthonormal, is_projector, projector, tensor)
from .measure import (DecompositionMode, DecompositionResult, HistoryMeasure,
                      MeasureReport, ToyBundle, born_probability, delta_psi,
                      delta_psi_line_integral, decompose_total_measure,
                      measure_report, segment_amplitude, transfer_chain)
from .models import ModelSpec, load_model, model_from_dict, model_to_dict, save_model
from .oracle import (FrequencyRow, FrequencyTable, OutcomeDistribution,
                     condition_on_final, monte_carlo_sample,
                     sequential_chain)

__all__ = [name for name in dir() if not name.startswith("_")]
