"""Exact enumeration of type-D quiver mutation classes.

Three independent routes to the same counts: breadth-first search over
quiver mutation with canonical isomorphism classes, tagged triangulations
of the once-punctured n-gon up to rotation and tag inversion, and star
trees (necklaces of full binary trees), all checked against closed-form
formulas.
"""

from .counting import a_count, catalan, d_cluster_count, d_count, necklace_count
from .errors import BoundExceededError
from .polygon import (
    NOTCHED,
    PLAIN,
    Arc,
    Diagonal,
    Radius,
    Triangulation,
    all_diagonals,
    class_key,
    class_representative,
    close_to_border,
    crossing_number,
    enumerate_triangulations,
    factor_out,
    fan_triangulation,
    flip,
    invert_tags,
    mu,
    quiver_of,
    quiver_vertex,
    rotate,
    tau,
    triangulation_class_count,
    triangulation_classes,
)
from .quiver import (
    Quiver,
    canonical_form,
    canonical_key,
    delete_vertex,
    dynkin_a,
    dynkin_d,
    is_connected,
    mutate,
    mutation_class_representatives,
)
from .trees import (
    LEAF,
    StarTree,
    apply_tree_move,
    leaf_count,
    leaf_star,
    merge_beads,
    rotate_inner_edge,
    split_bead,
    star_tree_class_count,
    star_tree_classes,
    star_tree_of,
    tree_key,
    tree_move_for_flip,
    triangulation_of,
)

__version__ = "0.1.0"
