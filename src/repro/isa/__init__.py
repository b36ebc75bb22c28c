"""Synthetic x86-64-flavoured micro-op ISA used by the workload VM and the core model.

The ISA is deliberately small: ALU operations, register/immediate moves, loads,
stores, and branches.  Loads carry an explicit addressing mode (PC-relative,
stack-relative, register-relative) because Constable's characterisation and the
per-category results of the paper (Figs. 3, 13, 17, 24) are keyed on it.
"""
