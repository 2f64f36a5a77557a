"""Workload generation: client prefixes, LDNS resolvers, traffic volumes."""

from repro.workloads.clients import ClientPrefix, generate_client_prefixes
from repro.workloads.ldns import LdnsResolver, assign_ldns
from repro.workloads.traffic import (
    diurnal_volume,
    traffic_matrix,
    sessions_matrix,
)

__all__ = [
    "ClientPrefix",
    "generate_client_prefixes",
    "LdnsResolver",
    "assign_ldns",
    "diurnal_volume",
    "traffic_matrix",
    "sessions_matrix",
]
