"""Roots of crosscap transpositions and crosscap slides in mapping class
groups of nonorientable surfaces, verified by exact oracles and replayable
rewrite certificates.

The package root exports the entry points the README documents (root
and braid-root construction, ``verify_identity``, ``certify_no_root_g3``,
words and their text, certificates and their text) and the error types;
every other name is imported from its own module.
"""

from .presentation import (
    Certificate,
    CertificateError,
    SchemaError,
    certificate_from_text,
    certificate_to_text,
)
from .roots import (
    NonexistenceError,
    RootRequest,
    RootResult,
    VerificationReport,
    construct_braid_root,
    construct_root,
    verify_identity,
)
from .small_genus import certify_no_root_g3
from .words import (
    ParseError,
    SurfaceModel,
    Word,
    WordError,
    format_word,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CertificateError",
    "NonexistenceError",
    "ParseError",
    "RootRequest",
    "RootResult",
    "SchemaError",
    "SurfaceModel",
    "VerificationReport",
    "Word",
    "WordError",
    "certificate_from_text",
    "certificate_to_text",
    "certify_no_root_g3",
    "construct_braid_root",
    "construct_root",
    "format_word",
    "parse_word",
    "verify_identity",
    "__version__",
]
