"""Quickstart: compile the paper's running example (Fig. 10) and execute it.

Run::

    python examples/quickstart.py

The session API is three lines: create a :class:`CompilerSession`, call
``session.run``, read the result.  The session memoizes compiled artifacts,
so the repeated runs below compile exactly once per optimization setting
(see the cache stats it prints).  The full pipeline is still inspectable:
mini-HPF source -> remapping graph (Fig. 11) -> dataflow optimizations
(Fig. 12) -> generated copy code (Fig. 20 style) -> execution on a
simulated 4-processor machine with message accounting.  The program's
text is ``FIG10`` of :mod:`repro.apps.figures`, which holds each of the
paper's figure programs once.
"""

import numpy as np

from repro import CompilerOptions, CompilerSession, compilation_report
from repro.apps.figures import FIG10


def main() -> None:
    n, steps = 16, 3

    # the three-line quickstart
    session = CompilerSession(processors=4)
    result = session.run(
        FIG10,
        bindings={"n": n, "m": steps},
        conditions={"c1": True},
        inputs={"a": np.arange(n * n, dtype=float).reshape(n, n)},
    )
    print(f"A restored to its declared mapping: status={result.status('a')}")
    print()

    # the compiled artifact (cached from the run above: note the hit)
    compiled = session.compile(FIG10, bindings={"n": n, "m": steps})
    print(compilation_report(compiled))
    print(compiled.trace.summary())
    print()

    for level, label in [(0, "naive"), (3, "optimized")]:
        r = session.run(
            FIG10,
            bindings={"n": n, "m": steps},
            conditions={"c1": True},
            inputs={"a": np.arange(n * n, dtype=float).reshape(n, n)},
            options=CompilerOptions(level=level),
        )
        s = r.machine.stats
        print(
            f"{label:>9}: remaps performed={s.remaps_performed:3d} "
            f"skipped={s.remaps_skipped_live + s.remaps_skipped_status:3d} "
            f"messages={s.messages:4d} bytes={s.bytes:6d} "
            f"simulated time={r.machine.elapsed * 1e3:7.3f} ms"
        )
    print()
    print(f"session cache: {session.stats}")


if __name__ == "__main__":
    main()
