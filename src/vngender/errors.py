"""Exception types shared across the package."""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class DataError(ToolkitError):
    """Dataset loading or validation failed."""


class EmptyNameError(ToolkitError):
    """A name was empty after trimming."""


class InvalidNameError(ToolkitError):
    """A name holds text that no UTF-8 string can, such as a lone surrogate."""


class EmptySequenceError(ToolkitError):
    """A token sequence was empty where at least one token is required."""


class FeaturizeError(ToolkitError):
    """Vocabulary fitting or vector transformation failed."""


class TrainingError(ToolkitError):
    """A model could not be trained on the given data/config."""


class DivergenceError(TrainingError):
    """Training produced non-finite parameters or loss."""


class EmbeddingError(ToolkitError):
    """A pretrained vector file could not be parsed, or stored vectors do not
    fit the embedding table."""


class EvaluationError(ToolkitError):
    """Splitting, scoring, or an experiment pipeline failed."""


class PredictionError(ToolkitError):
    """An input vector is incompatible with the model."""


class BundleError(ToolkitError):
    """Model bundle could not be read or written."""


class BundleFormatError(BundleError):
    """The bundle file is not in the expected binary format."""


class BundleVersionError(BundleError):
    """The bundle file uses an unsupported format version."""
