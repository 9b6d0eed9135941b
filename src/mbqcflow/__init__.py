"""Flow analysis, synthesis and simulation for measurement-based computations.

Core objects: open graphs with per-vertex measurement labels, flow witnesses
(correction-set map plus strict partial order), correction strategies,
measurement patterns, a dense state-vector simulator and a stabilizer engine.
"""

from .errors import (CapacityError, ContractError, FormatError,
                     PatternSyntaxError, RewriteError)
from .flows import (CorrectionFlow, PartialOrder, Verdict, flow_from_json,
                    flow_to_json, input_label_constraint, verify_causal_flow,
                    verify_gflow, verify_pauli_flow, verify_pauli_flow_original,
                    verify_real_pauli_flow)
from .graphs import (Graph, MeasurementLabel, OpenGraph, bipartition,
                     closed_odd_neighborhood, odd_neighborhood,
                     open_graph_from_json, open_graph_to_json)
from .instances import InstanceSpec, generate_instance
from .patterns import (Angle, PI_ANGLE, ZERO_ANGLE, CorrectX, CorrectZ,
                       Entangle, Mbqc, Measure, New,
                       Pattern, of_pattern, parse, pattern_from_json,
                       pattern_to_json, print_pattern, standardize, to_pattern,
                       validate)
from .search import (FlowSearchResult, find_pauli_flow,
                     find_pauli_flow_bruteforce, flow_depth)
from .stabilizer import (PauliOperator, StabilizerState, initial_stabilizers,
                         pauli_robustness_probe)
from .synthesis import (CorrectionStrategy, bipartite_normal_form,
                        completed_order, is_extensive, normal_form_equations_hold,
                        parallel_measurement_order, parallelize,
                        strategy_from_json, strategy_order,
                        strategy_to_json, synthesize_corrections)

# The state-vector engine is the only module that needs numpy: it, and the
# names re-exported from it, load on first access (PEP 562).
_STATEVEC = ("branch_map", "check_deterministic", "check_robust_deterministic",
             "check_strong_deterministic", "eigenpair", "run_pattern")

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + ["statevec", *_STATEVEC])
__version__ = "0.1.0"


def __getattr__(name):
    if name == "statevec" or name in _STATEVEC:
        from importlib import import_module
        statevec = import_module(".statevec", __name__)
        return statevec if name == "statevec" else getattr(statevec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
