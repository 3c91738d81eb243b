"""Scale benchmark for the LayerGCN serving and training stack.

Run ``python3 scalebench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``scalebench/README.md``.
"""
