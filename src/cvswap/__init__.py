"""Gaussian entanglement swapping with an optomechanical tripartite source.

The top level holds the README's library path; everything else is
imported from its module (``cvswap.protocol.TripartiteCM``,
``cvswap.sweep.run_sweep``, ...).
"""

__version__ = "0.1.0"

from .optomech import output_cm
from .protocol import classify, conditional_output_cm
from .sweep import load_params

__all__ = ["__version__", "load_params", "output_cm",
           "conditional_output_cm", "classify"]
