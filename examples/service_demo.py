"""Serving compiled programs: the concurrent service layer in action.

Run::

    python examples/service_demo.py

A :class:`~repro.service.CompileService` fronts the compiler for
request-time traffic: a batch of mixed requests (two sources, repeated
with different runtime inputs) executes on a bounded worker pool over one
:class:`~repro.compiler.session.CompilerSession`'s artifact cache.  The
demo shows the three service mechanisms at work:

* the first occurrence of each source compiles (session miss), repeats hit;
* identical requests arriving *concurrently* while the artifact is still
  compiling share one pipeline run (single-flight dedup);
* the stats snapshot is the whole telemetry surface: throughput, p50/p99
  latency, cache hits and misses, dedup saves, queue depth.
"""

import numpy as np

from repro import CompileService
from repro.apps.figures import FIG10


TRANSPOSE = """
subroutine transpose(m)
  integer m, n
  real X(n,n)
!hpf$ dynamic X
!hpf$ distribute X(block, *)
  compute "rows" writes X
  do i = 1, m
!hpf$   redistribute X(*, block)
    compute writes X reads X
!hpf$   redistribute X(block, *)
    compute writes X reads X
  enddo
end
"""


def main() -> None:
    n = 16
    with CompileService(processors=4, workers=4) as svc:
        requests = []
        for i in range(12):
            if i % 3 == 0:
                requests.append(
                    {
                        "source": TRANSPOSE,
                        "bindings": {"n": n, "m": 1 + i % 2},
                    }
                )
            else:
                requests.append(
                    {
                        "source": FIG10,
                        "bindings": {"n": n, "m": 2},
                        "conditions": {"c1": i % 2 == 0},
                        "inputs": {"a": np.full((n, n), float(i))},
                    }
                )

        results = svc.run_batch(requests)

        print("per-request outcomes:")
        for r in results:
            how = (
                "dedup-wait" if r.deduped
                else "cache-hit" if r.cached
                else "compiled"
            )
            print(
                f"  #{r.index:2d} {how:10s} "
                f"compile={r.compile_seconds * 1e3:6.2f} ms "
                f"run={r.run_seconds * 1e3:6.2f} ms "
                f"total={r.seconds * 1e3:6.2f} ms"
            )

        print("\nservice stats:")
        for k, v in svc.stats.snapshot().items():
            print(f"  {k}: {v:.3f}" if isinstance(v, float) else f"  {k}: {v}")

        print("\nartifact cache (svc.session):")
        cache = svc.session.stats
        for k in ("hits", "misses", "hit_rate", "entries"):
            print(f"  {k}: {cache[k]}")

        # the run results are ordinary ExecutionResults
        a = results[1].value("a")
        print(f"\nresult #1: a[0,:4] = {a[0, :4]}  (status={results[1].result.status('a')})")


if __name__ == "__main__":
    main()
