"""Benchmark of the lincone solvers; see README.md in this directory."""
