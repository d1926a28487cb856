"""Interprocedural remapping avoidance (paper Fig. 4).

Three consecutive calls pass a BLOCK-distributed array to subroutines whose
dummies want CYCLIC.  A naive compiler remaps on every entry and exit (six
copies); the paper's optimizations keep the argument CYCLIC across the call
sequence and remap exactly twice.  The program is Fig. 4 with a compute
that reads the argument in each callee (``FIG4_USE_X`` of
:mod:`repro.apps.figures`).

Run::

    python examples/argument_remapping.py
"""

import numpy as np

from repro import CompilerOptions, ExecutionEnv, Executor, Machine, compile_program
from repro.apps.figures import FIG4_USE_X


def main() -> None:
    n = 1024
    for level, label in [(0, "naive"), (3, "optimized")]:
        compiled = compile_program(
            FIG4_USE_X, bindings={"n": n}, processors=8, options=CompilerOptions(level=level)
        )
        machine = Machine(compiled.processors)
        env = ExecutionEnv(
            inputs={"y": np.arange(float(n))},
            kernels={"use_x": lambda ctx: ctx.value("x")},
        )
        Executor(compiled, machine, env).run("main")
        s = machine.stats
        print(
            f"{label:>9}: argument remappings performed={s.remaps_performed} "
            f"(skipped={s.remaps_skipped_live + s.remaps_skipped_status}), "
            f"bytes={s.bytes}"
        )
    print(
        "\nPaper Fig. 4: 'both back and forth remappings could be avoided\n"
        "between the two calls'.  The optimized run pays ONE copy in, stays\n"
        "CYCLIC across all three calls, and even the final copy back is free:\n"
        "intent(in) guarantees the callees never modified Y, so the original\n"
        "BLOCK copy is still live and is simply reused (Sec. 4.2)."
    )


if __name__ == "__main__":
    main()
