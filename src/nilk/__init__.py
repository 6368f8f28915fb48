"""Exact symbolic construction and machine verification of explicit
representatives of nonzero classes in NK1(Q[t^2,t^3,z,z^-1]) and
NK1(Z[Z/4]), with the associated Nil0 nilpotents and strong shift
equivalence witness checking."""

from .rings import (DualF2, GaussianInt, GroupRingZ4, IdealSpec,
                    NotAUnitError, Poly, Ring, RingMismatchError, Var,
                    hom_apply, ideal_member, psi, rho, subring_member,
                    truncate_t2)
from .matrices import (DoublePair, Matrix, NotInvertibleError,
                       block_assemble, elementary)
from .words import (StWord, dennis_stein_word, dual_symbol_word, eval_word,
                    expand_h, reduced_X_word)
from .laurent_pipeline import (Construction, K1Rep, NotNilpotentError,
                               PipelineError, clutch_projector, construct,
                               decompose_M, double_idempotent_B,
                               generalized_unit_rep, higman_companion, lift_A,
                               loop_z, theorem31_matrix)
from .groupring_pipeline import (kahler_D, lift_to_group_ring, reduce_to_dual,
                                 theorem42_block, word_Y, word_Z, yz_matrix)
from .nilsse import (ESSEWitness, SEWitness, SSEChain, frobenius,
                     verify_esse, verify_se, verify_sse_chain, verschiebung)

__all__ = [n for n in dir() if not n.startswith("_")]
