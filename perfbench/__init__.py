"""The repository's benchmark: four serving paths, end-to-end and per-layer
metrics (see ``perfbench/README.md``)."""
