"""One benchmark repetition, run in a fresh interpreter.

    python3 benchmark/child.py <spec.json>

The spec names the repository's `src` directory, the CLI arguments (none
for a repetition that only imports), the file to write timings to and,
for a traced repetition, the file to write spans to and the run id they
carry.  The child times the import of `curvedfronts.cli_io` (setup_s),
then the `main([...])` call (wall_s) and the CPU the process spends in it
(cpu_s).  Peak RSS is read from outside by the parent.
"""

import json
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import curvedfronts.cli_io as cli_io
    setup_s = time.perf_counter() - t0
    if spec["argv"] is None:
        with open(spec["result"], "w") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    tracer = None
    if spec.get("spans"):
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    c0 = _cpu_s()
    w0 = time.perf_counter()
    code = cli_io.main(spec["argv"])
    wall_s = time.perf_counter() - w0
    cpu_s = _cpu_s() - c0

    if tracer is not None:
        tracer.write(spec["spans"], spec["run_id"], t_start=w0,
                     t_end=w0 + wall_s)
    with open(spec["result"], "w") as fh:
        json.dump({"exit_code": code, "setup_s": setup_s, "wall_s": wall_s,
                   "cpu_s": cpu_s}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
