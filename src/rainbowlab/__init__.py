"""Rainbow numbers of matchings in paths, cycles, and regular bipartite graphs.

The package computes f(G, m) (the most colors a surjective edge-coloring of G
can use with no rainbow m-matching) and rb(G, m) = f(G, m) + 1 by exhaustive
canonical search, evaluates the known closed forms for each graph family,
emits the explicit extremal colorings that witness the lower bounds, and
verifies formulas against the oracle over instance sweeps, reporting every
disagreement it finds.
"""

from .colorings import (
    Coloring,
    load_coloring,
    parse_coloring,
    save_coloring,
)
from .constructions import (
    ConstructionReport,
    extremal_coloring_cycle_tight,
    extremal_coloring_path_simple,
    extremal_coloring_path_tight,
    extremal_coloring_regular,
)
from .errors import BudgetExceededError, RainbowLabError
from .extremal import (
    DEFAULT_EDGE_BUDGET,
    DISPUTED_CYCLE_CASES,
    ExtResult,
    RbResult,
    ext_exact,
    ext_formula_regular,
    rb_bounds_regular,
    rb_exact,
    rb_formula_complete_bipartite,
    rb_formula_cycle,
    rb_formula_path,
    rb_formula_regular,
)
from .graphs import (
    Graph,
    identify_vertices,
    load_graph,
    make_circulant_regular_bipartite,
    make_complete_bipartite,
    make_cycle,
    make_family,
    make_path,
    make_random_regular_bipartite,
    parse_graph,
    save_graph,
)
from .rainbow import RainbowWitness, find_rainbow_matching, max_matching_size
from .verify import (
    THEOREM_IDS,
    VerificationRecord,
    apply_allowlist,
    load_allowlist,
    monotonicity_records,
    verify_theorem,
)

__version__ = "0.1.0"
