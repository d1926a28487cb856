"""The paper's figure programs, each source text written once.

The paper argues for its optimizations on a handful of small programs:
Fig. 1 (realign, then redistribute), Fig. 2 (a remapping and its way
back), Fig. 4 (consecutive calls), Fig. 10 (the running example, whose
remapping graph is Fig. 11 and optimized graph Fig. 12), Fig. 13 (a live
copy that depends on the path taken), Fig. 15 (a call reached by an
ambiguous mapping) and Fig. 16 (a loop-invariant remapping).  Tests and
examples import their texts from here; a variant that really differs is
named after the figure and derived from its text, so the difference is
the one line that makes it.

``RUNS`` holds the standard runs of Figs. 1, 12 and 16 -- the bindings,
branch conditions and inputs the tests execute them at, on four
processors unless a test says otherwise -- each at ``n = N`` by default.

Neither :mod:`repro` nor :mod:`repro.apps` imports this module.
"""

from __future__ import annotations

import numpy as np

FIG1 = """
subroutine main()
  integer n
  real A(n, n), B(n, n)
!hpf$ align with B :: A
!hpf$ dynamic A, B
!hpf$ distribute B(block, *)
  compute reads A, B
!hpf$ realign A(i, j) with B(j, i)
!hpf$ redistribute B(cyclic, *)
  compute reads A, B
end
"""

FIG2 = """
subroutine main()
  integer n
  real B(n, n), C(n, n)
!hpf$ template T(n, n)
!hpf$ align B with T
!hpf$ align C(i, j) with T(j, i)
!hpf$ dynamic B, C
!hpf$ distribute T(block, *)
  compute reads B, C
!hpf$ redistribute T(cyclic, *)
  compute reads B
!hpf$ redistribute T(block, *)
  compute reads B, C
end
"""

FIG4 = """
subroutine foo(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
end

subroutine bla(X)
  integer n
  real X(n)
  intent in X
!hpf$ distribute X(cyclic)
end

subroutine main()
  integer n
  real Y(n)
!hpf$ dynamic Y
!hpf$ distribute Y(block)
  compute writes Y
  call foo(Y)
  call foo(Y)
  call bla(Y)
  compute reads Y
end
"""

#: Fig. 4 with a ``use_x`` compute reading the argument in both callees
FIG4_USE_X = FIG4.replace(
    "!hpf$ distribute X(cyclic)\n", '!hpf$ distribute X(cyclic)\n  compute "use_x" reads X\n'
)

#: Fig. 10's routine; Fig. 11 is its remapping graph, Fig. 12 that graph optimized
FIG10 = """
subroutine remap(A, m)
  integer m, n, p
  real A(n,n), B(n,n), C(n,n)
  intent inout A
!hpf$ align with A :: B, C
!hpf$ dynamic A, B, C
!hpf$ distribute A(block, *)
  compute "init" writes B reads A
  if c1 then
!hpf$   redistribute A(cyclic, *)
    compute writes A, p reads A, B
  else
!hpf$   redistribute A(block, block)
    compute writes p reads A
  endif
  do i = 1, m
!hpf$   redistribute A(*, block)
    compute writes C reads A
!hpf$   redistribute A(block, *)
    compute writes A reads A, C
  enddo
end
"""

FIG13 = """
subroutine main()
  integer n
  real A(n, n)
!hpf$ dynamic A
!hpf$ distribute A(block, *)
  compute reads A
  if c then
!hpf$   redistribute A(cyclic, *)
    compute writes A
  else
!hpf$   redistribute A(cyclic(2), *)
    compute reads A
  endif
!hpf$ redistribute A(block, *)
  compute reads A
end
"""

FIG15 = """
subroutine foo(X)
  integer n
  real X(n)
  intent inout X
!hpf$ distribute X(block(8))
  compute "touch" writes X
end

subroutine main()
  integer n
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(cyclic)
  compute writes A
  if c then
!hpf$   redistribute A(cyclic(2))
    compute reads A
  endif
  call foo(A)
!hpf$ redistribute A(block)
  compute reads A
end
"""

FIG16 = """
subroutine main(t)
  integer n, t
  real A(n)
!hpf$ dynamic A
!hpf$ distribute A(block)
  compute writes A
  do i = 1, t
!hpf$   redistribute A(cyclic)
    compute writes A reads A
!hpf$   redistribute A(block)
  enddo
  compute reads A
end
"""

#: Fig. 16 whose loop body only reads A
FIG16_READ_ONLY = FIG16.replace("compute writes A reads A", "compute reads A")

N = 16


def _square(n: int) -> np.ndarray:
    return np.arange(n * n, dtype=float).reshape(n, n)


#: name -> a function of the extent ``n`` that returns one run's source,
#: bindings, branch conditions and fresh inputs
RUNS = {
    "fig1": lambda n=N: dict(
        source=FIG1,
        bindings={"n": n},
        conditions={},
        inputs={"a": _square(n), "b": np.ones((n, n))},
    ),
    "fig12-then": lambda n=N: dict(
        source=FIG10,
        bindings={"n": n, "m": 3},
        conditions={"c1": True},
        inputs={"a": _square(n)},
    ),
    "fig12-else": lambda n=N: dict(
        source=FIG10,
        bindings={"n": n, "m": 3},
        conditions={"c1": False},
        inputs={"a": _square(n)},
    ),
    "fig16": lambda n=N: dict(
        source=FIG16,
        bindings={"n": n, "t": 5},
        conditions={},
        inputs={"a": np.arange(float(n))},
    ),
}
