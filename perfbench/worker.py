"""One fresh process of a benchmark run.

Usage: python3 perfbench/worker.py SPEC

SPEC is a JSON object with `src` (the directory `mixedsums` is imported
from: the program's `src`, or the benchmark's frozen reference copy), `cpu`
(the core to pin this process to, or null),
`fields` (list of [p, n]), `argv` (the `mixedsums verify` arguments without
`--out`, or null to only set up), `report` (report path), `trace` (bool),
`spans` (where a traced run writes its spans) and `result` (where this
process writes its numbers).

The process times its set-up (importing `mixedsums` and building every
field of the workload), then one call of `mixedsums.cli.main`, and ends by
reading its own peak RSS.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import mixedsums
    import mixedsums.cli
    fields = [mixedsums.build_field(p, n) for p, n in spec["fields"]]
    result = {"setup_s": time.perf_counter() - t0}
    del fields

    if Path(mixedsums.__file__).resolve().parent != src / "mixedsums":
        print(f"worker: imported mixedsums from {mixedsums.__file__}, not {src}",
              file=sys.stderr)
        return 2

    if spec["argv"] is not None:
        argv = spec["argv"] + ["--out", spec["report"]]
        if spec["trace"]:
            from spans import Recorder

            recorder = Recorder()
            with recorder.patched():
                t1 = time.perf_counter()
                code = mixedsums.cli.main(argv)
                verify_s = time.perf_counter() - t1
            result["layers"] = recorder.metrics()
            recorder.save(spec["spans"])
        else:
            t1 = time.perf_counter()
            code = mixedsums.cli.main(argv)
            verify_s = time.perf_counter() - t1
        result.update(exit_code=code, verify_s=verify_s)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
