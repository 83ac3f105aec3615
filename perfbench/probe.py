"""Fresh-interpreter probes, run as child processes of run.py.

    python3 perfbench/probe.py setup <workload> <seed> [--tiny]
        imports bcdcert (bcdcert.cli for cli_audit), builds every instance and
        start point of the workload, then prints "ready"; the parent times
        spawn-to-ready.
    python3 perfbench/probe.py import
        prints the seconds `import bcdcert.cli` takes inside the interpreter.
"""

import sys
import time


def main(argv):
    if argv[0] == "import":
        t0 = time.perf_counter()
        import bcdcert.cli  # noqa: F401

        print(repr(time.perf_counter() - t0), flush=True)
        return 0
    workload, seed = argv[1], int(argv[2])
    if workload == "cli_audit":
        import bcdcert.cli  # noqa: F401
    else:
        import cases

        cases.build(workload, seed, tiny="--tiny" in argv)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
