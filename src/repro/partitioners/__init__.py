"""Vertex-cut streaming partitioners (Table I) behind one registry.

Importing this package registers: ``hashing``, ``dbh``, ``greedy``,
``hdrf``, ``mint``, and from ``repro.core.clugp`` ``clugp``, ``clugp_s``,
``clugp_g``.  ``repro.core.clugp`` imports ``partitioners.base`` and so runs
this file first; the plain module import below is what keeps that cycle
working whichever side is imported first.
"""
import repro.core.clugp  # noqa: F401 — registers clugp, clugp_s, clugp_g
from repro.partitioners import (  # noqa: F401 — imports register algorithms
    greedy,
    hashing,
    hdrf,
    mint,
)
from repro.partitioners.base import (  # noqa: F401
    PartitionResult,
    all_partitioners,
    get_partitioner,
    partition_spark,
)
