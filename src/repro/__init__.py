"""BigDataBench reproduction: a big data benchmark suite from internet services.

A from-scratch Python reproduction of "BigDataBench: a Big Data Benchmark
Suite from Internet Services" (Wang et al., HPCA 2014): the 19-workload
suite, the BDGS synthetic data generators, the software-stack substrates
the workloads run on (MapReduce, Spark-like RDDs, MPI/BSP, an HBase-like
NoSQL store, a Hive-like SQL engine, and online-serving frameworks), and
a micro-architecture characterization harness standing in for the paper's
hardware performance counters.

Quick start::

    from repro.core.harness import Harness
    from repro.core.runspec import RunSpec
    result = Harness(cache=True).run(RunSpec(workload="WordCount"))
    print(result.events.l1i_mpki)

See ``examples/quickstart.py`` and DESIGN.md for the full tour.
"""

__version__ = "1.0.0"
