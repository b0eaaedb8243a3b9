"""Transaction-processing substrate: WAL, buffer pool, locks, engine.

Replaces the paper's Berkeley DB package.  Everything is written
against the :class:`~repro.blockdev.BlockDevice` contract, so the same
TPC-C workload runs over Trail and over the standard-disk baselines.
"""

from repro.db.engine import (
    EngineStats, Table, TableSpec, Transaction, TransactionEngine)
from repro.db.locks import LockManager, LockMode, LockStats
from repro.db.pages import BufferPool, PoolStats
from repro.db.wal import WalStats, WriteAheadLog

__all__ = [
    "BufferPool",
    "EngineStats",
    "LockManager",
    "LockMode",
    "LockStats",
    "PoolStats",
    "Table",
    "TableSpec",
    "Transaction",
    "TransactionEngine",
    "WalStats",
    "WriteAheadLog",
]
