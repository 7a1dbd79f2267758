"""Wall time, CPU time and peak RSS of the named stages of one operation."""
import contextlib
import resource
import time


@contextlib.contextmanager
def stage(name: str, stages: dict | None):
    """Record the block's wall seconds, the CPU seconds of all the process's
    threads and of the child processes it waited for, and the process's peak
    RSS at its end (`ru_maxrss`, KiB on Linux), as stages[name]; with
    `stages` None, nothing."""
    wall, cpu = time.perf_counter(), _cpu_s()
    yield
    if stages is None:
        return
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    stages[name] = {"wall_s": round(time.perf_counter() - wall, 4),
                    "cpu_s": round(_cpu_s() - cpu, 4), "maxrss_mb": round(maxrss, 2)}


def _cpu_s() -> float:
    """CPU seconds of this process's threads and of its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime
