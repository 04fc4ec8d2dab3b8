"""Checkpoint/restore of engine state."""

from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint,
    load,
    restore,
    save,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "checkpoint",
    "load",
    "restore",
    "save",
]
