"""Multi-receiver deployments on the discrete-event kernel.

:class:`FeedbackPlane` carries receivers' ambient reports over the
Wi-Fi uplink to one luminaire and fuses the fresh ones;
:class:`MulticellSimulation` runs a multi-luminaire network (mobility,
handover, interference) with one plane per luminaire, and its
one-luminaire case is the desk room."""

from .feedback import AmbientReport, FeedbackPlane
from .interference import (
    Interferer,
    effective_slot_errors,
    interference_sigma,
    sinr,
)
from .mobility import (
    LinearTrace,
    MobilityModel,
    RandomWaypoint,
    StaticPosition,
)
from .multicell import (
    AmbientField,
    CellReport,
    Luminaire,
    MobileNode,
    MulticellResult,
    MulticellSimulation,
    NodeReport,
    default_network,
    desk_room,
    luminaire_grid,
    strongest_cell,
)
from .sharded import merge_journals
from .spatial import LuminaireIndex

__all__ = [
    "AmbientField",
    "AmbientReport",
    "CellReport",
    "FeedbackPlane",
    "Interferer",
    "LinearTrace",
    "Luminaire",
    "LuminaireIndex",
    "MobileNode",
    "MobilityModel",
    "MulticellResult",
    "MulticellSimulation",
    "NodeReport",
    "RandomWaypoint",
    "StaticPosition",
    "default_network",
    "desk_room",
    "effective_slot_errors",
    "interference_sigma",
    "luminaire_grid",
    "merge_journals",
    "sinr",
    "strongest_cell",
]
