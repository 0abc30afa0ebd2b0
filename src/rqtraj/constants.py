"""Physical constants in the internal unit system (MeV, fm, s).

Energies are carried in MeV, lengths in fm and times in seconds, so hbar and
hbar*c are the only bridge constants.  hbar*c is derived from hbar and c
rather than set independently (``PhysicalSetup.hbar_c``): the constant set
then satisfies hbar_c / hbar == c (in fm/s) to machine precision.
"""

HBAR_MEV_S = 6.58212e-22        # reduced Planck constant [MeV s]
C_M_PER_S = 2.99792458e8        # speed of light [m/s]
FM_PER_M = 1e15

# hbar*c [MeV fm]; evaluates to 197.32699... (quoted as 197.327 to 6 digits)
HBARC_MEV_FM = HBAR_MEV_S * C_M_PER_S * FM_PER_M

ELECTRON_MEV = 0.510999         # electron rest energy [MeV]
