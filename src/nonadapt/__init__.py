"""Nonadaptive quantum query algorithms: simulation, lower bounds, learning.

The package simulates k-query nonadaptive algorithms in the phase-oracle
model (sparse states, diagonal oracles, projective and POVM measurements),
verifies the query-weight lower bound machinery on them, runs the reference
algorithms that meet the bound, and derandomizes quantum learners into
certain classical query plans.
"""
from .algorithms import (
    NonadaptiveAlgorithm,
    build_hadamard_algorithm,
    build_hadamard_instance,
    build_parity_algorithm,
    build_subset_algorithm,
    build_subset_state,
    decision_measurement,
    hadamard_concept_class,
    recovery_success_probability,
    run_algorithm,
    subset_count,
    subset_outcome_distribution,
)
from .boolfn import TotalFunction, build_function, load_function, save_function, sensitive_witness
from .bounds import (
    WeightProfile,
    bound_report,
    discrimination_feasible,
    error_lower_bound,
    error_profile,
    helstrom_error,
    oracle_pair_overlap,
    query_lower_bound,
    query_weight,
    weight_profile,
    worst_case_error,
)
from .errors import (
    BoundViolation,
    ContractViolation,
    InputOutsideClass,
    ParseError,
    ValidationError,
)
from .learning import (
    AmplitudeProfile,
    ClassicalOracle,
    ConceptClass,
    QueryPlan,
    amplitude_profile,
    build_classical_plan,
    check_pairwise_overlaps,
    classical_learn,
    classical_query_bound,
    full_concept_class,
    is_distinguishing,
    load_concept_class,
    load_plan,
    make_plan,
    min_distinguishing_set,
    plan_from_dict,
    plan_to_dict,
    position_to_tuple,
    sample_index_set,
    save_concept_class,
    save_plan,
    simulate_tensor_query,
    tensor_bit,
    tensor_power_class,
    tuple_to_position,
)
from .qstate import (
    ATOL,
    PovmMeasurement,
    ProjectiveMeasurement,
    QueryState,
    apply_oracle,
    inner_product,
    load_state,
    measure,
    oracle_phase,
    random_state,
    save_state,
    state_from_dict,
    state_to_dict,
)
from .rng import stream

__version__ = "0.1.0"
