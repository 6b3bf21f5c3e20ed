"""Generators for the paper's Tables 1-7.

Tables 1 and 3 are static survey/schema content; the rest are derived
from live objects (seed registry, workload registry, machine configs,
experiment geometry), so they cannot drift from the implementation.
"""

from __future__ import annotations

from repro.core import registry
from repro.core.report import render_table
from repro.core.workload import SCALE_FACTORS
from repro.datagen.seeds import SEED_REGISTRY
from repro.errors import InputError
from repro.uarch.hierarchy import XEON_E5310, XEON_E5645


def table1() -> "tuple[list, list]":
    """Comparison of big data benchmarking efforts (survey content)."""
    headers = ["Effort", "Real data sets", "Scalability", "Workload variety",
               "Software stacks", "Objects to test", "Status"]
    rows = [
        ["HiBench", "Unstructured text (1)", "Partial",
         "Offline/Realtime Analytics", "Hadoop and Hive", "Hadoop and Hive",
         "Open Source"],
        ["BigBench", "None", "N/A", "Offline Analytics", "DBMS and Hadoop",
         "DBMS and Hadoop", "Proposal"],
        ["AMP Benchmarks", "None", "N/A", "Realtime Analytics",
         "Realtime analytic systems", "Realtime analytic systems",
         "Open Source"],
        ["YCSB", "None", "N/A", "Online Services", "NoSQL systems",
         "NoSQL systems", "Open Source"],
        ["LinkBench", "Unstructured graph (1)", "Partial", "Online Services",
         "Graph database", "Graph database", "Open Source"],
        ["CloudSuite", "Unstructured text (1)", "Partial",
         "Online Services, Offline Analytics",
         "NoSQL systems, Hadoop, GraphLab", "Architectures", "Open Source"],
        ["BigDataBench", "Six real-world data sets (6)", "Total",
         "Online Services, Offline Analytics, Realtime Analytics",
         "NoSQL, DBMS, realtime/offline analytics systems",
         "Systems and architecture", "Open Source"],
    ]
    return headers, rows


def table2() -> "tuple[list, list]":
    """The six real-world seed data sets (from the live registry)."""
    headers = ["No.", "Data set", "Type", "Source", "Paper size", "Our seed size"]
    rows = [
        [s.number, s.name, s.data_type, s.data_source, s.paper_size, s.our_size]
        for s in SEED_REGISTRY
    ]
    return headers, rows


def table3() -> "tuple[list, list]":
    """Schema of the e-commerce transaction data (live schema)."""
    from repro.datagen.seeds import ecommerce_transactions

    data = ecommerce_transactions(num_orders=10)
    headers = ["Table", "Column", "Type"]
    rows = []
    for table in (data.orders, data.items):
        for name, dtype in table.schema():
            rows.append([table.name, name, dtype])
    return headers, rows


def table4() -> "tuple[list, list]":
    """The 19-workload suite summary (from the workload registry)."""
    headers = ["Scenario", "Type", "Workload", "Data type", "Source", "Stacks"]
    rows = []
    for name in registry.workload_names():
        info = registry.WORKLOAD_CLASSES[name].info
        rows.append([
            info.scenario, info.app_type, info.name,
            info.data_type, info.data_source, ", ".join(info.stacks),
        ])
    return headers, rows


def table5() -> "tuple[list, list]":
    """Xeon E5645 node configuration."""
    summary = XEON_E5645.summary()
    return list(summary.keys()), [list(summary.values())]


def table6() -> "tuple[list, list]":
    """Workloads in the experiments: input geometry and stack."""
    headers = ["ID", "Workload", "Software Stack", "Input size", "Scales"]
    rows = []
    for name in registry.workload_names():
        info = registry.WORKLOAD_CLASSES[name].info
        rows.append([
            info.workload_id, info.name, info.stacks[0],
            info.input_description,
            "x".join(str(s) for s in SCALE_FACTORS),
        ])
    return headers, rows


def table7() -> "tuple[list, list]":
    """Xeon E5310 node configuration."""
    summary = XEON_E5310.summary()
    return list(summary.keys()), [list(summary.values())]


ALL_TABLES = {
    "Table 1": table1,
    "Table 2": table2,
    "Table 3": table3,
    "Table 4": table4,
    "Table 5": table5,
    "Table 6": table6,
    "Table 7": table7,
}


def render(name: str) -> str:
    """Render one table by its paper name."""
    if name not in ALL_TABLES:
        raise InputError(f"unknown table {name!r}; known: {', '.join(ALL_TABLES)}")
    headers, rows = ALL_TABLES[name]()
    return render_table(headers, rows, title=name)
