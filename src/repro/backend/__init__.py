"""Out-of-order backend building blocks: buffers, ports, memory disambiguation."""
