"""Synthetic workload generation.

The paper evaluates 90 proprietary traces drawn from SPEC CPU 2017, Client,
Enterprise and Server suites.  This package replaces them with synthetic
workloads: small "assembly" programs composed from kernels that reproduce the
empirically observed sources of global-stable loads (runtime constants,
inlined-function arguments, tight loops over read-only data) and of non-stable
memory traffic (streaming, pointer chasing, random access, store-heavy phases).

A functional VM executes the composed program to produce the dynamic
instruction trace consumed by the timing model; the same functional values
back the golden check at retirement.
"""
