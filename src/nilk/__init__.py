"""Exact symbolic construction and machine verification of explicit
representatives of nonzero classes in NK1(Q[t^2,t^3,z,z^-1]) and
NK1(Z[Z/4]), with the associated Nil0 nilpotents and strong shift
equivalence witness checking."""
