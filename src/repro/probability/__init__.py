"""The probability kernel: sparse distributions and CPTs.

Everything probabilistic in Caldera — stream marginals, evidence
vectors, Reg's per-NFA-state masses, the MC index's composed CPTs —
reduces to these two types and their product / propagate / compose
operations.
"""

from .cpt import CPT, CPTBlock, decode_block, validate_cpt
from .distribution import SparseDistribution

__all__ = ["CPT", "CPTBlock", "SparseDistribution", "decode_block",
           "validate_cpt"]
