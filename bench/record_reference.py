"""Rewrites bench/reference.json: one pass of each workload at the default seed.

    python3 bench/record_reference.py

The checks compare every later run with these outputs, so record only from a
commit whose outputs are known good, and say so when a change re-records.
"""

import json

import run


def main() -> None:
    run.import_package()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    doc = {"seed": workloads.DEFAULT_SEED}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(workloads.DEFAULT_SEED, run.OUT)
        doc[name] = {"settings": w.settings(), "outputs": w.run_pass().outputs}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
