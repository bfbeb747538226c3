"""Certified constant-gain bounds and mean-squared-error bounds for LMS.

The package decides, for a given regressor law (its second moment and
fourth-moment operator), which constant gains provably keep the LMS
recursion's mean-squared error bounded; produces the certifying Lyapunov
matrix and decay rate; evaluates finite-horizon and asymptotic error
bounds; compares against classical step-size rules; and validates the
certificates with a seeded Monte Carlo simulator.
"""

__version__ = "0.1.0"

from .bounds import (CERTIFICATE_KINDS, ChiSearchResult, CriterionKind,
                     GainTooLarge, InvalidRate, SupGainResult,
                     asymptotic_bound, finite_k_bound, initial_v,
                     initial_error_second_moment, max_chi_search,
                     pencil_max_eigenvalue, protocol_gain, sup_gain)
from .ingest import (ColumnOutOfRange, ParseError, RaggedRow, RawTable,
                     RegressorRecipe, build_design, parse_table,
                     parse_table_text, write_canonical_csv)
from .lmi import (GainCertificate, NonConvergence, check_certificate,
                  drift_matrix, identity_certificate, mean_square_map,
                  mean_square_map_matrix, solve_feasibility, sym_basis)
from .moments import (DataMatrix, DimMismatch, EmptyData, GaussianSpec,
                      InvalidCovariance, MomentModel, UnsupportedOperator,
                      empirical_moment_model, explicit_moment_model,
                      gaussian_moment_model)
from .presets import (BENCHMARK_NAMES, DEFAULT_MASTER_SEED, GAUSSIAN_CASES,
                      REED_FOURTH_MOMENT, REED_SECOND_MOMENT, benchmark_model)
from .report import (Table, build_errorbound_table, build_supgain_table,
                     classification_annotations, supgain_results,
                     working_gain_simulations, write_benchmark_reports)
from .simulate import (SimBatch, SimConfig, SimResult, batch_ls, classify,
                       recursive_ls, run_error_recursion, run_lms,
                       sampling_factor)

__all__ = [name for name in dir() if not name.startswith("_")]
