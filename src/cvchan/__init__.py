"""cvchan: Gaussian states, Gaussian channels, and symplectic linear algebra.

The package computes output p-norms, minimal output entropy, and the
energy-constrained Holevo capacity of classical-noise and thermal-noise
channels, and verifies the underlying symplectic-spectrum inequalities by
randomized campaigns.
"""

__version__ = "0.1.0"

from . import symplectic, states, channels, functionals, majorization
from .symplectic import *
from .states import *
from .channels import *
from .functionals import *
from .majorization import *

__all__ = ["__version__"]
__all__ += symplectic.__all__
__all__ += states.__all__
__all__ += channels.__all__
__all__ += functionals.__all__
__all__ += majorization.__all__
