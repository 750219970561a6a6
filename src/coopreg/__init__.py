"""Cooperative output regulation for networks of boundary-controlled parabolic agents.

The package covers the full workflow: communication-graph analysis, signal
models, backstepping kernel solves, decoupling and Riccati-based gain
synthesis, closed-loop simulation, and a scenario-driven command line.
"""

from . import errors
from .backstepping import (
    OutputOperator,
    TriangularKernel,
    invert_kernel,
    solve_kernel,
    transform_output_weight,
)
from .comm_graph import (
    CommTopology,
    GraphMatrices,
    is_connected,
    laplacian,
    spectral_lower_bound,
)
from .grid import GridFunction
from .scenario import Scenario, load_scenario, loads, serialize
from .signal_model import (
    ExoModel,
    check_controllable,
    frequency_blocks,
)
from .simulator import (
    AgentSpec,
    ErrorMetrics,
    NominalPlant,
    SimTrace,
    error_metrics,
    simulate,
    simulate_target_cascade,
)
from .synthesis import (
    MODE_LEADER,
    MODE_LEADERLESS,
    DecouplingSolution,
    RegulatorGains,
    assemble_gains,
    certify_stability,
    check_controllable_pair,
    internal_model_rank_check,
    read_gains_file,
    solve_are,
    solve_decoupling,
    sync_steady_state,
    write_gains_file,
)

__version__ = "0.1.0"
