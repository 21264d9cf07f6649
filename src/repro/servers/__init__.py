"""Authoritative DNS servers and their instrumentation."""

from repro.servers.authoritative import AuthoritativeServer
from repro.servers.hierarchy import ZoneSpec, build_hierarchy
from repro.servers.querylog import QueryLog, QueryLogEntry

__all__ = [
    "AuthoritativeServer",
    "QueryLog",
    "QueryLogEntry",
    "ZoneSpec",
    "build_hierarchy",
]
