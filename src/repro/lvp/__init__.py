"""Load value predictors: the EVES predictor (CVP-1 winner) and the Lipasti LLVP."""
