"""Exception types. ValueError subclasses signal bad input or invalid states
(CLI exit code 1); RuntimeError subclasses signal numerical failure (exit code 2).
One defect raises one type on every entry point, for one state or a stack: an
eigenvalue below -1e-8, NonPhysicalStateError; a NaN or out-of-range argument of
binary_entropy or eof_from_concurrence, or a non-finite SystemParams field,
ValueError; a bad EmitterGeometry field, GeometryError; a bad scenario file,
ScenarioError; a propagated sample off the physical manifold, PropagationError;
a spin-flip spectrum that is not real, NumericsError."""


class EmitterSimError(Exception):
    """Base class for all ecsim errors."""


class NonPhysicalStateError(EmitterSimError, ValueError):
    """A density matrix violates Hermiticity, unit-trace, or positivity bounds."""


class GeometryError(EmitterSimError, ValueError):
    """Invalid emitter geometry, or a formula used outside its applicability window."""


class AnalyticFormError(EmitterSimError, ValueError):
    """Closed-form evolution requested outside its preconditions."""


class XStructureError(EmitterSimError, ValueError):
    """State does not have the required X structure."""


class ZeroProbabilityOutcomeError(EmitterSimError, ValueError):
    """Conditional state undefined: measurement outcome has (near-)zero probability."""


class ScenarioError(EmitterSimError, ValueError):
    """Scenario or geometry configuration file is malformed."""


class PropagationError(EmitterSimError, RuntimeError):
    """A propagated state left the physical manifold."""


class NumericsError(EmitterSimError, RuntimeError):
    """A numerical routine produced results outside its guaranteed bounds."""
