"""The repository benchmark: three workloads driven through the engine's
public entry points, answer checking against an independent oracle, and
a traced run that splits op wall time into per-layer self time.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root.
"""
