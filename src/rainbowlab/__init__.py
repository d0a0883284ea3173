"""Rainbow numbers of matchings in paths, cycles, and regular bipartite graphs.

The package computes f(G, m) (the most colors a surjective edge-coloring of G
can use with no rainbow m-matching) and rb(G, m) = f(G, m) + 1 by exhaustive
canonical search, evaluates the known closed forms for each graph family,
emits the explicit extremal colorings that witness the lower bounds, and
verifies formulas against the oracle over instance sweeps, reporting every
disagreement it finds.
"""

# Each module's __all__ is the one declaration of its public names.
from .colorings import *  # noqa: F401,F403
from .constructions import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .extremal import *  # noqa: F401,F403
from .graphs import *  # noqa: F401,F403
from .rainbow import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"
