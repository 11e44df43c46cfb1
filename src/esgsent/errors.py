"""Exception hierarchy shared by every pipeline stage.

Each error class carries the process exit code the CLI maps it to, so
command handlers can stay generic.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for all recoverable pipeline failures."""

    exit_code = 1
    category = "pipeline"


class SchemaError(PipelineError):
    """A payload, file line, or row violates its documented schema."""

    exit_code = 2
    category = "schema"


class ConfigError(PipelineError):
    """A config file or flag value that its key's parser rejects."""

    exit_code = 2
    category = "config"


class InvariantError(PipelineError):
    """Well-formed input whose values break a domain invariant (e.g. low > high)."""

    exit_code = 2
    category = "invariant"


class InputError(PipelineError):
    """An input file that cannot be decoded as UTF-8; the message names the file."""

    exit_code = 2
    category = "io"


class TransportError(PipelineError):
    """A transport could not deliver data (network failure, missing fixture)."""

    exit_code = 3
    category = "transport"


class InsufficientData(PipelineError):
    """Not enough observations for the requested computation."""

    exit_code = 4
    category = "insufficient-data"
