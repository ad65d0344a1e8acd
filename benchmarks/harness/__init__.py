"""Repository benchmark: workloads, outside-in tracer and result comparison.

See ``README.md`` in this directory for the workloads, the metrics and how to
run, trace and compare.
"""
