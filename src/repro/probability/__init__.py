"""The probability kernel: sparse distributions and CPTs.

Everything probabilistic in Caldera — stream marginals, evidence
vectors, Reg's per-NFA-state masses, the MC index's span products —
reduces to these types. :class:`SparseDistribution` and :class:`CPT`
hold dict rows; :class:`CPTBlock` holds K CPTs as CSR arrays, the form
every record is decoded to (:func:`decode_block`), encoded from
(:func:`encode_block`) and densified for the Reg kernel and the MC
index build (:func:`~repro.probability.cpt.densify`), and
:class:`MarginalBlock` holds a run of marginals as CSR arrays, the form
their records are encoded from (:func:`encode_marginals`).
"""

from .cpt import CPT, CPTBlock, decode_block, encode_block
from .distribution import MarginalBlock, SparseDistribution, encode_marginals

__all__ = ["CPT", "CPTBlock", "MarginalBlock", "SparseDistribution",
           "decode_block", "encode_block", "encode_marginals"]
