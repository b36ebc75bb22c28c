"""Memory hierarchy substrate: caches, prefetchers, DRAM, TLB and coherence directory."""
