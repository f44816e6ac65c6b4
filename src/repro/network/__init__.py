"""InfiniBand network model: links, flows, max-min sharing, QDR parameters."""

from .fabric import Fabric, Flow, Link, maxmin_rates
from .ibnet import IBNetwork
from .params import NetworkSpec

__all__ = [
    "Fabric",
    "Flow",
    "IBNetwork",
    "Link",
    "NetworkSpec",
    "maxmin_rates",
]
