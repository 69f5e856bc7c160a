"""Reaction-diffusion through periodic thin channels: channel-resolved solver,
interface limit model, and the unfolding-based verification tools."""

__version__ = "0.1.0"

from .geometry import (
    CellGeometry,
    ChannelProfile,
    MicroGeometry,
    build_micro_geometry,
    build_reference_cell,
)
from .grid import Field, RectGrid, build_bulk_grid, build_cell_grid, build_micro_grid
from .kinetics import InitialData, KineticsSpec
from .macrosim import InterfaceLayout, MacroSimulation, MacroState
from .microsim import DiffusionSpec, KineticsBundle, MicroSimulation, MicroState
from .twoscale import TwoScaleReport, Unfolder

__all__ = [
    "CellGeometry",
    "ChannelProfile",
    "MicroGeometry",
    "build_micro_geometry",
    "build_reference_cell",
    "Field",
    "RectGrid",
    "build_bulk_grid",
    "build_cell_grid",
    "build_micro_grid",
    "InitialData",
    "KineticsSpec",
    "InterfaceLayout",
    "MacroSimulation",
    "MacroState",
    "DiffusionSpec",
    "KineticsBundle",
    "MicroSimulation",
    "MicroState",
    "TwoScaleReport",
    "Unfolder",
]
