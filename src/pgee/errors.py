"""Exception hierarchy shared across the package."""


class PgeeError(Exception):
    """Base class for all package-specific errors."""


class DatasetError(PgeeError, ValueError):
    """Invalid input dataset."""


class NonBinaryOutcome(DatasetError):
    """A response value other than 0 or 1 was found."""


class SingletonCluster(DatasetError):
    """A cluster with a single observation; clusters need n_i >= 2."""


class RaggedCovariates(DatasetError):
    """Covariate dimension differs across rows or clusters."""


class TooFewClusters(DatasetError):
    """Fewer clusters than p + 1; the N - p Wald test would be undefined."""


class SingularV(PgeeError):
    """Working covariance of a cluster is not positive definite."""


class SingularInformation(PgeeError):
    """Sensitivity matrix is singular or ill-conditioned (cond > 1e12)."""


class SingularLeverage(PgeeError):
    """(I0 - A_i), or (I - H_ii) as an estimator's reason, is numerically singular."""

    def __init__(self, message: str, cluster_id=None):
        super().__init__(message)
        self.cluster_id = cluster_id


class ZeroSE(PgeeError):
    """A Wald test was requested with a non-positive standard error."""


class BracketFailure(PgeeError):
    """Intercept calibration target is unreachable on the search bracket."""


class SingularR(PgeeError):
    """Target correlation matrix is singular; conditional weights undefined."""


class TooFewConverged(PgeeError):
    """Not enough converged replications to aggregate a scenario."""


class ConfigError(PgeeError, ValueError):
    """Malformed simulation configuration."""
