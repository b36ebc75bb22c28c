"""Constable: safe elimination of load instruction execution (the paper's contribution).

The engine is purely microarchitectural: a Stable Load Detector (SLD) learns
which loads repeatedly fetch the same value from the same address, a Register
Monitor Table (RMT) watches their source architectural registers, and an
Address Monitor Table (AMT) watches stores and snoops to their memory
locations.  Once a load's ``can_eliminate`` flag is set, later instances are
converted at rename into register moves fed from a small extra register file
(xPRF) and never execute.
"""
