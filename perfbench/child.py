"""One benchmark round in a fresh interpreter.

    python3 perfbench/child.py JOB.json

The job file (written by run.py) names the scenario file, the code rate,
the `cli.main` argument lists and where to write the result. The round
times its own set-up (interpreter start, `import ullsim`, `load_config`,
`harness.get_code`) from run.py's spawn time, then calls
`ullsim.cli.main` once per argument list and times each call. With
`"trace": true` it installs the span wrappers first; otherwise it counts
the wrappers present before and after the calls, which must be none.
"""

import json
import resource
import sys
import time
import traceback


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)

    import ullsim
    from ullsim import cli, harness
    from ullsim.config import load_config
    load_config(job["config"])
    if job["rate"] is not None:
        harness.get_code(job["rate"])
    # CLOCK_MONOTONIC is system-wide, so run.py's spawn time is comparable.
    setup_s = time.monotonic() - job["spawned"]

    result = {"setup_s": setup_s, "walls": [], "codes": []}
    if not job["calls"]:
        return _finish(job, result)

    import tracing
    if job["trace"]:
        import multiprocessing
        ctx = (multiprocessing.get_context(job["start_method"])
               if job["start_method"] else None)
        tracer = tracing.install(job["span_dir"], mp_context=ctx)
    result["wrapped_bindings"] = tracing.wrapped_bindings()

    for argv in job["calls"]:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        result["walls"].append(time.perf_counter() - t0)
        result["codes"].append(code)

    if job["trace"]:
        tracer.dump()
    else:
        result["wrapped_bindings"] += tracing.wrapped_bindings()
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["context"] = _context(ullsim)
    return _finish(job, result)


def _context(ullsim) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "ullsim": ullsim.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _finish(job: dict, result: dict) -> int:
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
