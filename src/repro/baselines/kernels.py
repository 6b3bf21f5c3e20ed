"""Baseline-kernel framework for the traditional benchmark suites.

The paper compares BigDataBench against HPCC 1.4 (all seven benchmarks),
PARSEC 3.0 (all twelve, native inputs), and SPEC CPU2006 (grouped into
SPECINT and SPECFP) -- Section 6.1.3.  Each kernel here is a small
*functional* numpy computation instrumented with the same
:class:`~repro.uarch.perfctx.PerfContext` API as the big data engines, so
Figures 4-6 compare both worlds under one measurement model.

Kernels return a checkable functional result; profiles are collected by
:func:`run_kernel` / :func:`run_suite`.
"""

from __future__ import annotations

from repro.uarch.codemodel import CodeProfile
from repro.uarch.events import PerfEvents, ProfileReport
from repro.uarch.hierarchy import MachineConfig, XEON_E5645
from repro.uarch.perfctx import PerfContext

MB = 1024 * 1024


class BaselineKernel:
    """One traditional-benchmark program."""

    name = "kernel"
    suite = "HPCC"
    code_profile: CodeProfile = None

    def execute(self, ctx) -> dict:
        """Run the kernel under ``ctx``; return functional results."""
        raise NotImplementedError


def run_kernel(kernel: BaselineKernel, machine: MachineConfig = XEON_E5645,
               seed: int = 0) -> "tuple[ProfileReport, dict]":
    """Profile one kernel on one machine configuration."""
    ctx = PerfContext(machine, seed=seed)
    with ctx.code(kernel.code_profile):
        result = kernel.execute(ctx)
    report = ctx.finalize(metadata={"kernel": kernel.name, "suite": kernel.suite})
    return report, result


def run_suite(kernels: list, machine: MachineConfig = XEON_E5645,
              seed: int = 0) -> list:
    """Profile a whole suite; returns one report per kernel."""
    return [run_kernel(k, machine, seed)[0] for k in kernels]


def suite_average(reports: list) -> PerfEvents:
    """Merged (summed) events across a suite: the paper's Avg_* bars."""
    merged = PerfEvents()
    for report in reports:
        merged = merged.merge(report.events)
    return merged

