"""Hadoop-like MapReduce engine: the suite's primary analytics stack.

A functional single-process MapReduce over numpy record batches -- DFS
splits, map, optional combine, hash/range partitioning, shuffle,
reduce-side sort, grouped reduce -- with framework-overhead profiling
that models the deep JVM software stack the paper holds responsible for
the high L1I-cache MPKI of big data workloads.
"""

from repro.mapreduce.counters import Counters
from repro.mapreduce.hdfs import DEFAULT_BLOCK_SIZE, Dfs, DfsFile, Split
from repro.mapreduce.job import MapReduceJob, OpCost, SumByKeyJob
from repro.mapreduce.runtime import (
    FrameworkOverhead,
    HADOOP_OVERHEAD,
    JobResult,
    MPI_OVERHEAD,
    MapReduceRuntime,
    SPARK_OVERHEAD,
    charge_sort,
)

__all__ = [
    "Counters",
    "DEFAULT_BLOCK_SIZE",
    "Dfs",
    "DfsFile",
    "FrameworkOverhead",
    "HADOOP_OVERHEAD",
    "JobResult",
    "MPI_OVERHEAD",
    "MapReduceJob",
    "MapReduceRuntime",
    "OpCost",
    "SPARK_OVERHEAD",
    "Split",
    "SumByKeyJob",
    "charge_sort",
]
