"""Ring circulant network-on-chip toolkit.

Synthesizes circulant topologies and their mesh/torus baselines, routes
packets with table, clockwise, and adaptive strategies, and models the
memory and chip-resource cost of each approach.
"""

from .analysis import (
    RESOURCE_CURVES,
    CapacityReport,
    ChipProfile,
    CycleReport,
    EfficiencyReport,
    MemoryReport,
    QuadraticCost,
    adaptive_memory_bits,
    chip_capacity,
    clockwise_memory_bits,
    cycle_report,
    efficiency_k,
    memory_report,
    payload_bits,
    resource_usage,
    route_cycle_count,
    table_memory_bits,
)
from .errors import LivelockError, ValidationError
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    FuzzConfig,
    FuzzReport,
    fuzz_termination,
    run_experiment,
    square_sizes,
)
from .routing import (
    ALGORITHMS,
    AS_PRINTED,
    CORRECTED,
    AdaptiveMode,
    RouteTrace,
    RouterConfig,
    RoutingTable,
    build_routing_table,
    route_runs,
    trace_route,
)
from .topology import (
    CirculantSpec,
    ComparisonRow,
    GridSpec,
    TopologyMetrics,
    circulant_distance_profile,
    compare_topologies,
    formula_optimal_circulant,
    graph_to_dot,
    metrics,
    search_best_circulant2,
    search_best_ring_circulant,
)

__version__ = "0.1.0"
