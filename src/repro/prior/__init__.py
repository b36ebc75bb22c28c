"""Prior works compared against Constable: ELAR and Register File Prefetching."""
