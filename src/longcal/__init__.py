"""Longitudinal calibration toolkit.

Learns a (command, speed) -> acceleration table from drive logs, adapts it
online from closed-loop feedback, and validates both against a simulated
vehicle plant with configurable load.
"""

from .table import (
    CalibrationTable,
    MonotonicityViolation,
    NonFiniteTable,
    ParseError,
    default_cmd_grid,
    default_speed_grid,
    deserialize,
    invert,
    lookup_acc,
    lookup_cmd,
    project_monotone,
    serialize,
)

__version__ = "0.1.0"
