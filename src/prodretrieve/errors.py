"""Exception hierarchy for the retrieval pipeline.

Every pipeline failure raises a subclass of ProdRetrieveError so the CLI
can map any data-level problem to a single exit code while still printing
the specific error name.
"""


class ProdRetrieveError(Exception):
    """Base class for all pipeline errors."""


class MalformedFile(ProdRetrieveError):
    """A data file breaks its format, or an id cannot be stored in one unchanged."""


# --- embedding store ---

class MagicMismatch(ProdRetrieveError):
    """File does not start with the EMB1 magic bytes."""


class TruncatedFile(ProdRetrieveError):
    """File is shorter than its header declares."""


class DuplicateId(ProdRetrieveError):
    """Two rows share the same item id."""


class NonFiniteValue(ProdRetrieveError):
    """A vector contains NaN or infinity."""


class IoFailure(ProdRetrieveError):
    """An item id longer than the 65,535 bytes an EMB1 id record can hold."""


class ZeroVector(ProdRetrieveError):
    """A row has (near-)zero Euclidean norm and cannot be normalized."""


class MisalignedScales(ProdRetrieveError):
    """Members of a scale group disagree on ids or dimensionality."""


# --- search core ---

class DimMismatch(ProdRetrieveError):
    """Query and gallery feature dimensionalities differ."""


class NotNormalized(ProdRetrieveError):
    """An operation requiring unit-norm rows received unnormalized input."""


class UnmappedCropId(ProdRetrieveError):
    """A gallery crop id has no parent in the crop-group map."""


# --- re-ranking / sharding ---

class TooFewItems(ProdRetrieveError):
    """Joint query+gallery set is too small for the neighborhood size."""


class InvalidParams(ProdRetrieveError):
    """Parameter block violates its invariants."""


class CorruptShard(ProdRetrieveError):
    """A shard file fails its sha256 trailer or holds a line that is no ranking list."""


# --- ensembles ---

class ShapeMismatch(ProdRetrieveError):
    """Ensemble member matrices have different shapes."""


class IdMismatch(ProdRetrieveError):
    """Ensemble members disagree on query or gallery ids."""


class DuplicateBallot(ProdRetrieveError):
    """One model submitted two ranking lists for the same query."""


# --- pseudo-labels ---

class PoolTooSmall(ProdRetrieveError):
    """Unclustered pool cannot supply the requested singleton classes."""


class TargetBelowClusterCount(ProdRetrieveError):
    """Requested class count is smaller than the number of kept clusters."""


class MalformedClusters(ProdRetrieveError):
    """A cluster file is not valid JSON or lacks its keys or partition."""


# --- evaluation ---

class UnknownGalleryId(ProdRetrieveError):
    """A ranking list references an id outside the gallery id space."""


# --- harness ---

class ShardsMissing(ProdRetrieveError):
    """Strict-mode coordinator found absent, corrupt, stale or unreadable shards."""


class ManifestInvalid(ProdRetrieveError):
    """Job manifest is malformed or references missing inputs."""
