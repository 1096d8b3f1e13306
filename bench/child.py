"""One measured workload run in a fresh interpreter.

Usage: ``python child.py setup`` or ``python child.py run <workload> <jobs.json> <trace 0|1>``.

The speed probe (``speed.py``) starts first; the first statement that
touches ``unirep`` is the import of ``unirep.cli``. The monotonic clock
right after it is printed, with the probe's samples over the import, so the
parent can take set-up time as the interval from spawning this process.
``run`` then runs each job through ``unirep.cli.main`` exactly as the
command line does (parse, task, report write), then ``unirep verify`` on
every report, then the workload's invariants, and prints one JSON line with
the timings: rescaled to the nominal speed, and raw wall times as well.
"""

import json
import os
import sys
import time
import traceback

from speed import SpeedProbe, rescale

PROBE = SpeedProbe()
PROBE.start()
PROBE.mark()

import unirep.cli as cli  # noqa: E402

IMPORTED = time.monotonic()
# Every sample so far falls inside the set-up interval, the first one included.
SETUP_HANDLER_S, SETUP_DURATIONS = PROBE.spent, list(PROBE.durations)


def _cli(*argv):
    """Exit code of ``unirep *argv``; an escaping exception is exit code 1, as in the shell."""
    try:
        return cli.main(list(argv))
    except Exception:
        traceback.print_exc()
        return 1


def _phase(commands):
    """Exit codes of the ``unirep`` commands run in turn; rescaled and raw seconds in them."""
    codes, wall, handler, durations = [], 0.0, 0.0, []
    for argv in commands:
        mark = PROBE.mark()
        t0 = time.perf_counter()
        codes.append(_cli(*argv))
        wall += time.perf_counter() - t0
        h, d = PROBE.since(mark)
        handler += h
        durations += d
    return codes, rescale(wall, handler, durations), wall


def _run(workload, jobs_path, trace):
    import contextlib
    import io
    import resource

    from workloads import invariant_errors

    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
        PROBE.on_sample = tracer.exclude
    run_mark = PROBE.mark()
    with contextlib.redirect_stdout(io.StringIO()):
        task_rc, task_s, task_wall_s = _phase(
            [[task, "--config", config, "--out", report] for task, config, report in jobs])
        verify_rc, verify_s, verify_wall_s = _phase(
            [["verify", "--report", report]
             for (_task, _config, report), rc in zip(jobs, task_rc) if rc == 0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _handler, run_durations = PROBE.since(run_mark)
    PROBE.stop()

    failures = []
    report_bytes = 0
    verify_codes = iter(verify_rc)
    for (task, _config, report), rc in zip(jobs, task_rc):
        if rc != 0:
            failures.append([task, f"exit code {rc}"])
            continue
        report_bytes += os.path.getsize(report)
        vrc = next(verify_codes)
        if vrc != 0:
            failures.append([task, f"verify exit code {vrc}"])
            continue
        with open(report, encoding="utf-8") as fh:
            errors = invariant_errors(workload, json.load(fh))
        if errors:
            failures.append([task, "; ".join(errors)])
    result = {
        "imported": IMPORTED,
        "setup_handler_s": SETUP_HANDLER_S,
        "setup_durations": SETUP_DURATIONS,
        "task_s": task_s,
        "verify_s": verify_s,
        "task_wall_s": task_wall_s,
        "verify_wall_s": verify_wall_s,
        "peak_rss_mb": peak_rss_mb,
        "tasks": len(jobs),
        "failures": failures,
    }
    if tracer is not None:
        from tracer import layer_metrics, span_table
        # Span times share the run's rescaling; the probe's own time is not in them.
        result["layers"] = layer_metrics(tracer, report_bytes, rescale(1.0, 0.0, run_durations))
        print(span_table(tracer), file=sys.stderr)
    return result


def main(argv):
    if argv[0] == "setup":
        PROBE.stop()
        unirep_dir = os.path.dirname(os.path.abspath(cli.__file__))
        print(json.dumps({"imported": IMPORTED, "setup_handler_s": SETUP_HANDLER_S,
                          "setup_durations": SETUP_DURATIONS, "unirep": unirep_dir}))
        return 0
    workload, jobs_path, trace = argv[1], argv[2], argv[3] == "1"
    print(json.dumps(_run(workload, jobs_path, trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
