"""Wall time, CPU time and peak RSS of the named stages of one operation."""
import contextlib
import resource
import time


@contextlib.contextmanager
def stage(name: str, stages: dict):
    """Record the block's wall and CPU seconds, and the process's peak RSS at
    its end (`ru_maxrss`, KiB on Linux), as stages[name]."""
    wall, cpu = time.perf_counter(), time.process_time()
    yield
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    stages[name] = {"wall_s": round(time.perf_counter() - wall, 4),
                    "cpu_s": round(time.process_time() - cpu, 4), "maxrss_mb": round(maxrss, 2)}
