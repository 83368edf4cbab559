"""Three-echelon food supply chain design and planning toolkit.

Phase I places distribution centers by iterative center-of-gravity
refinement and wires the single-channel network; Phase II plans orders,
deliveries, and inventory per period under stochastic demand and supply,
sweeping the cost weight into a Pareto front over accessibility and
cost; a discrete-event simulator validates chosen solutions.

The stages live in the submodules (model, gfa, stochastic, pareto,
desim, ...); import from those.  The package itself holds __version__
and sets the BLAS thread count.
"""

import os

__version__ = "0.1.0"

# BLAS libraries read these once, when numpy loads, so they are set here,
# before any submodule imports numpy.  The period models are small: BLAS
# threads only contend with the sweep's worker processes for the cores.
# A count the user chose is kept.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
if not any(var in os.environ for var in _BLAS_VARS):
    os.environ.update(dict.fromkeys(_BLAS_VARS, "1"))
