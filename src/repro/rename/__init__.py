"""Rename-stage machinery: register alias table, dynamic instruction optimizations
(move/zero elimination, constant and branch folding) and Memory Renaming (MRN)."""
