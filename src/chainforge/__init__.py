"""Three-echelon food supply chain design and planning toolkit.

Phase I places distribution centers by iterative center-of-gravity
refinement and wires the single-channel network; Phase II plans orders,
deliveries, and inventory per period under stochastic demand and supply,
sweeping the cost weight into a Pareto front over accessibility and
cost; a discrete-event simulator validates chosen solutions.

The stages live in the submodules (model, gfa, stochastic, pareto,
desim, ...); import from those.  The package itself holds only
__version__.
"""

__version__ = "0.1.0"
