"""Exception taxonomy.

Every failure mode that callers are expected to catch gets its own class;
all inherit from TopoError so a driver can catch the whole family.
"""


class TopoError(Exception):
    """Base class for all library errors."""


# --- model construction ---

class FluxQuantizationError(TopoError):
    """Magnetic flux incompatible with periodic boundary conditions."""


class NonHermitianHoppingsError(TopoError):
    """Hopping list is missing a reverse partner (-a, t_a^dagger)."""


class UnknownModelError(TopoError):
    pass


class ParamOutOfRangeError(TopoError):
    pass


class BadDimensionError(TopoError):
    pass


class InconsistentSymmetriesError(TopoError):
    """Declared chiral operator contradicts the product of TRS and PHS."""


# --- spectral ---

class ConvergenceFailureError(TopoError):
    """Eigensolver did not converge."""


class NoGapError(TopoError):
    """No spectral gap of the required width around the Fermi level."""


class GapMismatchError(TopoError):
    """Switch-function gap does not match the bulk gap."""


# --- invariants ---

class OddIndexSetError(TopoError):
    pass


class EvenIndexSetError(TopoError):
    pass


class NotChiralError(TopoError):
    pass


class BlockSingularError(TopoError):
    """Off-diagonal block of the Fermi projection is not invertible."""


class NotConvergedError(TopoError):
    """Raw invariant too far from the nearest admissible value."""


class ThresholdAmbiguityError(TopoError):
    """Singular values too close to the kernel threshold to trust."""


class MarginTooSmallError(TopoError):
    """Kernel counting margin below the trust threshold."""


class SpinSpectrumGaplessError(TopoError):
    """P s^z P has no gap at zero; spin Chern number undefined."""


class OddDimensionError(TopoError):
    pass


class NotAntisymmetricError(TopoError):
    pass


class ContourHitsSpectrumError(TopoError):
    pass


class UnsupportedGeneratorError(TopoError):
    pass


# --- boundary ---

class ProfileNotDecayedError(TopoError):
    """Boundary unitary does not decay into the bulk; sample too thin."""


class SurfaceBandAmbiguousError(TopoError):
    """Central surface band is not separated from the bulk bands."""


# --- flow ---

class BranchAmbiguityError(TopoError):
    """Eigenvector overlap below threshold after maximal refinement."""


class SymmetryBrokenAtHalfFluxError(TopoError):
    pass


class PfaffianUnderflowError(TopoError):
    pass


class KernelAtEndpointError(TopoError):
    """Flux-path endpoint touches zero; Z2 flow undefined."""


# --- harness ---

class ConfigError(TopoError):
    """Configuration file could not be parsed or validated."""
