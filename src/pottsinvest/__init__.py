"""Per-capita investment curves for a ring of q-level interacting agents.

The model couples neighbouring agents on a ring through per-level
interaction strengths and an external bias; the package computes the
expected investment per agent as a function of the control parameter beta,
in closed form wherever the couplings take at most two values, and for any
couplings from the dominant eigenvector of the transfer matrix, which
solves a scalar secular equation, through the Hellmann-Feynman identity
l = sum_a d_a v_a^2.  The paper's finite-difference route stays available
as a cross-check through an explicit ``StencilConfig``.
"""

from . import closedform, derivatives, model, profiles, transfer
from .closedform import *  # noqa: F401,F403
from .derivatives import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .profiles import *  # noqa: F401,F403
from .transfer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = (
    model.__all__ + transfer.__all__ + derivatives.__all__ + closedform.__all__ + profiles.__all__
)
