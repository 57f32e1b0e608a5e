"""The repo benchmark: four closed-loop workloads measured from outside.

Nothing here is imported by ``repro``; the benchmark drives the program
through its public functions and reads the counters it already exposes
(see ``bench/README.md``).
"""
