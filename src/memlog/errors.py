"""Exception types raised across the package.

Every recoverable failure mode has a dedicated class so that callers
(and the CLI exit-code table) can dispatch on type rather than on
message text.
"""


class MemlogError(Exception):
    """Base class for all package errors."""


# --- log parsing -----------------------------------------------------------

class LogParseError(MemlogError):
    """Base class for the three ways a log can fail to parse."""


class NotJson(LogParseError):
    """Input is not a parseable JSON object."""


class OversizeLog(LogParseError):
    """Input exceeds the configured size cap."""


class EmptyDocument(LogParseError):
    """Input is empty or whitespace-only."""


# --- PE image parsing ------------------------------------------------------

class PeError(MemlogError):
    """Base class for PE image parse failures."""


class BadDosMagic(PeError):
    """Image does not start with the MZ signature."""


class BadPeSignature(PeError):
    """PE signature, machine or optional-header magic is not recognized."""


class TruncatedHeader(PeError):
    """Image ends inside a mandatory header structure."""


class MalformedSectionTable(PeError):
    """Section table is inconsistent with the image."""


class BadDataDirectory(PeError):
    """Import/export directory contents cannot be walked."""


class EmptyInput(MemlogError):
    """Entropy of zero bytes is undefined."""


# --- vocabulary / embeddings ----------------------------------------------

class EmptyCorpus(MemlogError):
    """No token survives vocabulary construction."""


class VocabMismatch(MemlogError):
    """Vocabulary does not match the embedding matrices."""


# --- binary model files ----------------------------------------------------

class ModelFileError(MemlogError):
    """Base class for an embeddings or model file whose contents are invalid."""


class BadMagic(ModelFileError):
    """File does not start with the expected magic bytes."""


class VersionMismatch(ModelFileError):
    """File format version is not supported."""


class CorruptPayload(ModelFileError):
    """File payload is truncated or structurally invalid."""


# --- training --------------------------------------------------------------

class SingleClassInput(MemlogError):
    """Training labels contain only one class."""


class TooFewRows(MemlogError):
    """Training needs at least two rows."""


class NonFiniteFeature(MemlogError):
    """Feature matrix contains NaN or infinity."""


class UnlabeledLog(MemlogError):
    """Corpus vectorization requires every log to carry a label."""


# --- evaluation ------------------------------------------------------------

class LengthMismatch(MemlogError):
    """Paired label/score sequences differ in length."""


class InsufficientClassCount(MemlogError):
    """Pool cannot satisfy the requested split sizes."""


# --- generator / deployment ------------------------------------------------

class InvalidSpec(MemlogError):
    """Generator specification is out of range."""


class ModelLoadFailure(MemlogError):
    """Embeddings or classifier file is missing or unreadable."""


class BindFailure(MemlogError):
    """Service cannot bind the requested address."""


class WatchDirMissing(MemlogError):
    """Agent watch directory does not exist."""
