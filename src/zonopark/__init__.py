"""Exact lattice-point combinatorics of a shifted permutohedral zonotope.

The package enumerates integer points of the zonotope spanned by the unit
segments [0, e_i] and the scaled root segments [0, (m/2)(e_i - e_j)],
shifted by tau along the all-ones direction, entirely in exact arithmetic.
On top of the enumeration sit the parking-function correspondence, the
Dyck-path / Fuss-Catalan count of regular orbits, the companion spanning
tree and Mobius-inversion pipeline, and the weight tables with their color
decomposition.
"""

from .scalars import EpsRational, as_eps_rational, parse_scalar
from .zonotope import (
    Location,
    NotAdmissibleError,
    SupportBounds,
    ZonotopeSpec,
    contains,
    count_invariant_points,
    count_lattice_points,
    dominant_points,
    enumerate_lattice_points,
    has_boundary_lattice_point,
    is_admissible,
    support_bounds,
)
from .orbits import (
    merge_orbits,
    normalize_partition,
    orbit_of,
    orbit_size,
    prefix_groups,
    stabilizer_partition,
)
from .parking import (
    class_index,
    enumerate_parking_functions,
    fuss_catalan,
    increasing_parking_functions,
    is_parking_function,
    lattice_to_parking,
    orbit_to_dyck,
    parking_to_lattice,
)
from .treecount import (
    MultiGraph,
    build_graph,
    composition_sum,
    compositions,
    contract,
    contracted_count_closed_form,
    determinant,
    enumerate_partitions,
    laplacian,
    mobius,
    partition_types,
    regular_orbit_count_mobius,
    spanning_tree_count,
    volume_by_bases,
)
from .tilting import (
    WeightTable,
    color_window_start,
    dominant_weight_blocks,
    dominant_weights,
    staircase,
    t_grid,
    tau_for_t,
    tilting_weights,
)

__version__ = "0.1.0"
