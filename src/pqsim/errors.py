"""Exception types shared across the package."""

from __future__ import annotations


class PqsimError(Exception):
    """Base class for all pqsim errors."""


class DimensionError(PqsimError, ValueError):
    """A matrix or vector has an invalid or mismatched dimension."""


class ContractionError(PqsimError, ValueError):
    """A transfer matrix has a singular value above 1 (not physical)."""


class NotPsdError(PqsimError, ValueError):
    """A covariance matrix has an eigenvalue below the PSD tolerance."""


class SingularOrderingError(PqsimError, ValueError):
    """An ordering parameter makes a quasiprobability distribution singular."""


class NegativityError(PqsimError, ValueError):
    """A quasiprobability distribution is negative at the requested ordering."""


class SimulabilityError(PqsimError, RuntimeError):
    """The experiment violates the positivity condition needed for sampling.

    Carries the :class:`~pqsim.simulability.SimulabilityReport` when one was
    produced, so callers can inspect why the run was refused.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnsupportedSourceError(PqsimError, ValueError):
    """A source type is not supported by the requested sampling method."""


class DegenerateDetectorError(PqsimError, ValueError):
    """A detector parameter makes the ordering bound undefined."""


class UndefinedOperatingPointError(PqsimError, ValueError):
    """The photon-number planning rule is undefined for these parameters."""


class OracleSizeError(PqsimError, ValueError):
    """The configuration is too large for the brute-force oracle."""


class ConfigError(PqsimError, ValueError):
    """An experiment configuration violates its schema or an invariant."""
