"""Applications the paper motivates remappings with (Sec. 1).

"Array remappings are definitely useful to applications and kernels such
as ADI, linear algebra solvers, 2-D FFT, signal processing or tensor
computations."  Each module builds a mini-HPF program whose compute
statements are real numerical kernels, runs it through the compiler and
the simulated machine, and validates the result against a sequential NumPy
reference:

* :mod:`~repro.apps.adi` -- alternating-direction-implicit sweeps, the
  paper's canonical loop (Fig. 10's structure);
* :mod:`~repro.apps.fft2d` -- 2-D FFT via row FFTs, a transpose remapping,
  and column FFTs (reference [10] of the paper);
* :mod:`~repro.apps.lu` -- a block LU solver alternating between row and
  column distributions;
* :mod:`~repro.apps.sar` -- a synthetic-aperture-radar-style two-stage
  matched filtering pipeline with a corner turn (reference [17]);
* :mod:`~repro.apps.workloads` -- random well-formed program generation
  for the optimization-soundness property tests and scaling benchmarks;
* :mod:`~repro.apps.figures` -- the paper's figure programs, each text
  once, and the standard runs the tests execute them at.  This package
  does not import it: tests and examples import it directly.
"""

from repro.apps.adi import run_adi
from repro.apps.fft2d import run_fft2d
from repro.apps.lu import run_lu
from repro.apps.sar import run_sar

__all__ = ["run_adi", "run_fft2d", "run_lu", "run_sar"]
