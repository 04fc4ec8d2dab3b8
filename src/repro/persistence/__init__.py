"""Checkpoint/restore of engine state."""

from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint,
    checkpoint_sharded,
    engine_checkpoint,
    load,
    restore,
    restore_payload,
    restore_sharded,
    save,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "checkpoint",
    "checkpoint_sharded",
    "engine_checkpoint",
    "load",
    "restore",
    "restore_payload",
    "restore_sharded",
    "save",
]
