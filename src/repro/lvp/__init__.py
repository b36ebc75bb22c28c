"""Load value prediction: the EVES predictor (CVP-1 winner)."""
