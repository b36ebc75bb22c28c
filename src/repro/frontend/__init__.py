"""Front-end models: branch prediction."""
