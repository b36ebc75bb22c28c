"""Cycle-level out-of-order core model (trace-driven) with optional Constable,
load value prediction, MRN, ELAR and RFP attached."""
