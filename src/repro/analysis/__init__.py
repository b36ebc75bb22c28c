"""Trace analysis: the Load Inspector and small statistics helpers."""
