"""Exception types raised across the pipeline."""


class SentinetError(Exception):
    """Base class for all pipeline errors."""


class EmptyCorpusError(SentinetError):
    """No parseable tweet records were found."""


class UrlParseError(SentinetError):
    """A URL could not be reduced to a host domain."""


class EmptyGraphError(SentinetError):
    """An operation requires a nonempty graph."""


class CoverageError(SentinetError):
    """A partition does not assign every graph node."""


class NodeSetMismatchError(SentinetError):
    """Two partitions are not defined on the same node set."""


class UndefinedScoreError(SentinetError):
    """A statistic is undefined for the given (degenerate) input."""


class ParameterError(SentinetError):
    """A parameter is out of its valid range."""


class ZeroVarianceError(SentinetError):
    """Principal components are undefined for constant input rows."""


class DegenerateClusteringError(SentinetError):
    """Requested cluster count exceeds the number of distinct values."""


class InvalidDocumentError(SentinetError):
    """Cosine similarity is undefined for zero trigram vectors."""


class VocabularyOverflowError(SentinetError):
    """More distinct tokens than a trigram code's token ids can number."""


class DegenerateTableError(SentinetError):
    """A contingency table has an empty row or column marginal."""


class ConfigError(SentinetError):
    """Pipeline configuration is invalid or incomplete."""


class StageError(SentinetError):
    """A pipeline stage failed; carries stage name and artifact path."""

    def __init__(self, stage: str, artifact: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed writing {artifact!r}: {cause}")
        self.stage = stage
        self.artifact = artifact
        self.cause = cause
