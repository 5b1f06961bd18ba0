"""Seed-reproducible simulator of a two-step key distribution protocol on
photon pairs entangled in both polarization and frequency.

The package namespace holds what a caller needs to configure and run
sessions and to read their reports and transcripts; the state algebra, the
measurement device and the session phases live in the submodules.
"""

from .protocol import (
    CheckStrategy,
    ConfigError,
    EveStrategy,
    EveTarget,
    Message,
    MessageKind,
    ProtocolConfig,
    RunReport,
    Transcript,
    run_session,
    run_sessions,
)

__version__ = "0.1.0"

__all__ = [
    "CheckStrategy",
    "ConfigError",
    "EveStrategy",
    "EveTarget",
    "Message",
    "MessageKind",
    "ProtocolConfig",
    "RunReport",
    "Transcript",
    "run_session",
    "run_sessions",
]
