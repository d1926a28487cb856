"""Tests for the mini-HPF front end: tokenizer, parser, printer, builder, semantics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.figures import FIG10
from repro.errors import MissingInterfaceError, ParseError, SemanticError
from repro.lang import (
    parse_program,
    parse_subroutine,
    print_program,
    resolve_program,
)
from repro.lang.ast_nodes import (
    AlignSubscript,
    Block,
    Call,
    Compute,
    Do,
    If,
    Kill,
    Program,
    Realign,
    Redistribute,
)
from repro.lang.builder import SubroutineBuilder, program
from repro.lang.tokens import HPF, NAME, NEWLINE, tokenize
from repro.mapping import DistKind, ProcessorArrangement


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_basic_line():
    toks = tokenize("real A(10, n)")
    kinds = [t.kind for t in toks]
    assert kinds[:3] == [NAME, NAME, "PUNCT"]
    assert toks[0].value == "real"
    assert toks[-1].kind == "EOF"


def test_tokenize_hpf_marker():
    toks = tokenize("!hpf$ distribute A(block)")
    assert toks[0].kind == HPF
    assert toks[1].value == "distribute"


def test_tokenize_comment_skipped():
    toks = tokenize("call foo(A) ! remaps A\ncall bar(B)")
    values = [t.value for t in toks if t.kind == NAME]
    assert values == ["call", "foo", "a", "call", "bar", "b"]


def test_tokenize_case_insensitive():
    toks = tokenize("REAL A(10)")
    assert toks[0].value == "real"
    assert toks[1].value == "a"


def test_tokenize_string():
    toks = tokenize('compute "sweep x" reads A')
    assert toks[1].kind == "STRING"
    assert toks[1].value == "sweep x"


def test_tokenize_unterminated_string():
    with pytest.raises(ParseError):
        tokenize('compute "oops')


def test_tokenize_bad_char():
    with pytest.raises(ParseError):
        tokenize("call foo(A) @")


def test_tokenize_newlines_collapsed_to_one_per_line():
    toks = tokenize("a\n\n\nb")
    assert [t.kind for t in toks] == [NAME, NEWLINE, NAME, NEWLINE, "EOF"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_fig10_structure():
    sub = parse_subroutine(FIG10)
    assert sub.name == "remap"
    assert sub.params == ("a", "m")
    body = sub.body.stmts
    assert isinstance(body[0], Compute)
    assert body[0].label == "init"
    assert isinstance(body[1], If)
    assert isinstance(body[1].then.stmts[0], Redistribute)
    assert body[1].then.stmts[0].formats[0].kind == "cyclic"
    assert isinstance(body[2], Do)
    assert len(body[2].body.stmts) == 4


def test_parse_align_shorthand_expands():
    sub = parse_subroutine(FIG10)
    aligns = [d for d in sub.decls if type(d).__name__ == "AlignDecl"]
    assert [a.alignee for a in aligns] == ["b", "c"]
    assert all(a.target == "a" for a in aligns)


def test_parse_align_with_dummies():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8,8), B(8,8)
!hpf$ align A(i, j) with B(j, i)
end
"""
    )
    (al,) = [d for d in sub.decls if type(d).__name__ == "AlignDecl"]
    assert al.dummies == ("i", "j")
    assert al.subscripts == (
        AlignSubscript.of_dummy("j"),
        AlignSubscript.of_dummy("i"),
    )


def test_parse_affine_subscripts():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8)
!hpf$ template T(20, 4)
!hpf$ align A(i) with T(2*i+1, *)
end
"""
    )
    (al,) = [d for d in sub.decls if type(d).__name__ == "AlignDecl"]
    s0, s1 = al.subscripts
    assert (s0.stride, s0.offset, s0.dummy) == (2, 1, "i")
    assert s1.kind == "star"


def test_parse_negative_offset_and_const():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8)
!hpf$ template T(20, 4)
!hpf$ align A(i) with T(i-1, 3)
end
"""
    )
    (al,) = [d for d in sub.decls if type(d).__name__ == "AlignDecl"]
    assert al.subscripts[0].offset == -1
    assert al.subscripts[1].kind == "const" and al.subscripts[1].offset == 3


def test_parse_distribute_onto_and_sizes():
    sub = parse_subroutine(
        """
subroutine s()
  real A(16, 16)
!hpf$ processors P(2, 2)
!hpf$ distribute A(block(4), cyclic(2)) onto P
end
"""
    )
    (di,) = [d for d in sub.decls if type(d).__name__ == "DistributeDecl"]
    assert di.onto == "p"
    assert di.formats[0].kind == "block" and di.formats[0].arg == 4
    assert di.formats[1].kind == "cyclic" and di.formats[1].arg == 2


def test_parse_call_and_kill():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8)
  call foo(A)
!hpf$ kill A
end
"""
    )
    assert sub.body.stmts[0] == Call("foo", ("a",))
    assert sub.body.stmts[1] == Kill(("a",))


def test_parse_realign_statement():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8,8), B(8,8)
!hpf$ align A with B
!hpf$ realign A(i,j) with B(j,i)
end
"""
    )
    (st,) = sub.body.stmts
    assert isinstance(st, Realign)
    assert st.dummies == ("i", "j")


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as e:
        parse_subroutine("subroutine s(\nend")
    assert "line" in str(e.value)


def test_parse_if_without_else():
    sub = parse_subroutine(
        """
subroutine s()
  real A(8)
  if c then
    compute reads A
  endif
end
"""
    )
    (st,) = sub.body.stmts
    assert isinstance(st, If)
    assert st.orelse == Block()


def test_parse_program_multiple_subroutines():
    p = parse_program(
        """
subroutine foo(X)
  real X(8)
end

subroutine main()
  real A(8)
  call foo(A)
end
"""
    )
    assert [s.name for s in p.subroutines] == ["foo", "main"]


def test_parse_empty_program_rejected():
    with pytest.raises(ParseError):
        parse_program("   \n  \n")


# ---------------------------------------------------------------------------
# printer round-trip
# ---------------------------------------------------------------------------


def test_print_parse_roundtrip_fig10():
    p1 = Program((parse_subroutine(FIG10),))
    text = print_program(p1)
    p2 = parse_program(text)
    assert p1 == p2


def test_print_parse_roundtrip_features():
    src = """
subroutine s(m, X)
  integer m
  real X(8, 8), Y(8)
  intent inout X
!hpf$ processors P(2, 2)
!hpf$ template T(16, 16)
!hpf$ align X(i, j) with T(2*j, i+3)
!hpf$ align Y(k) with T(k, *)
!hpf$ dynamic X, Y
!hpf$ distribute T(block(8), cyclic) onto P
  compute "k1" reads X writes Y defines X
  if c1 then
!hpf$   realign X(i, j) with T(j, i)
  else
    do i = 1, m
      call s(m, X)
    enddo
  endif
!hpf$ kill Y
end
"""
    p1 = parse_program(src)
    assert parse_program(print_program(p1)) == p1


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------


def test_builder_matches_parsed():
    b = SubroutineBuilder("s", params=("m",))
    b.scalar("m")
    b.array("a", (8, 8))
    b.dynamic("a")
    b.distribute("a", "block", "*")
    b.compute(reads=("a",))
    with b.do("i", 1, "m"):
        b.redistribute("a", "*", "block")
        b.compute(writes=("a",))
    sub = b.build()
    parsed = parse_subroutine(
        """
subroutine s(m)
  integer m
  real a(8, 8)
!hpf$ dynamic a
!hpf$ distribute a(block, *)
  compute reads a
  do i = 1, m
!hpf$   redistribute a(*, block)
    compute writes a
  enddo
end
"""
    )
    assert sub == parsed


def test_builder_branch():
    b = SubroutineBuilder("s")
    b.array("a", (8,))
    with b.branch("c1") as alt:
        b.compute(reads=("a",))
        alt.orelse()
        b.compute(writes=("a",))
    sub = b.build()
    (st,) = sub.body.stmts
    assert isinstance(st, If)
    assert isinstance(st.then.stmts[0], Compute)
    assert st.orelse.stmts[0].writes == ("a",)


def test_builder_bad_format():
    b = SubroutineBuilder("s")
    with pytest.raises(ValueError):
        b.distribute("a", "diagonal")


# ---------------------------------------------------------------------------
# semantics
# ---------------------------------------------------------------------------


def test_resolve_fig10_initial_mappings():
    p = Program((parse_subroutine(FIG10),))
    r = resolve_program(p, bindings={"n": 16}, default_processors=ProcessorArrangement("P", (4,)))
    sub = r.get("remap")
    a = sub.array("a")
    assert a.shape == (16, 16)
    assert a.intent == "inout"
    assert a.dynamic
    # all three aligned to the same template, block by rows
    b = sub.array("b")
    assert a.initial_mapping.same_layout(b.initial_mapping)
    dm = a.initial_mapping.dim_maps
    assert dm[0].kind is DistKind.BLOCK and dm[0].is_distributed
    assert not dm[1].is_distributed


def test_resolve_symbolic_extent_missing_binding():
    p = Program((parse_subroutine(FIG10),))
    with pytest.raises(SemanticError):
        resolve_program(p, default_processors=ProcessorArrangement("P", (4,)))


def test_resolve_unmapped_array_is_replicated():
    p = parse_program(
        """
subroutine s()
  real A(8)
!hpf$ processors P(4)
  compute reads A
end
"""
    )
    r = resolve_program(p)
    m = r.get("s").array("a").initial_mapping
    from repro.mapping.ownership import layout_of

    lay = layout_of(m)
    assert len(lay.holders()) == 4
    assert lay.dim_is_local(0)


def test_resolve_align_chain_composition():
    p = parse_program(
        """
subroutine s()
  real A(8, 8), B(8, 8), C(8, 8)
!hpf$ processors P(2)
!hpf$ align B with A
!hpf$ align C(i, j) with B(j, i)
!hpf$ distribute A(block, *)
end
"""
    )
    r = resolve_program(p)
    sub = r.get("s")
    a, b, c = (sub.array(n).initial_mapping for n in "abc")
    assert a.same_layout(b)
    assert not a.same_layout(c)  # transposed


def test_resolve_missing_interface():
    p = parse_program(
        """
subroutine main()
  real A(8)
!hpf$ processors P(2)
  call mystery(A)
end
"""
    )
    with pytest.raises(MissingInterfaceError):
        resolve_program(p)


def test_resolve_arg_shape_mismatch():
    p = parse_program(
        """
subroutine foo(X)
  real X(16)
!hpf$ processors P(2)
end

subroutine main()
  real A(8)
  call foo(A)
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


def test_resolve_intent_on_non_dummy_rejected():
    p = parse_program(
        """
subroutine s()
  real A(8)
  intent in A
!hpf$ processors P(2)
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


def test_resolve_align_cycle_rejected():
    p = parse_program(
        """
subroutine s()
  real A(8), B(8)
!hpf$ processors P(2)
!hpf$ align A with B
!hpf$ align B with A
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


def test_resolve_aligned_and_distributed_rejected():
    p = parse_program(
        """
subroutine s()
  real A(8), B(8)
!hpf$ processors P(2)
!hpf$ align A with B
!hpf$ distribute A(block)
!hpf$ distribute B(block)
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


def test_resolve_compute_unknown_name():
    p = parse_program(
        """
subroutine s()
  real A(8)
!hpf$ processors P(2)
  compute reads Z
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


def test_resolve_default_intent_is_inout():
    p = parse_program(
        """
subroutine foo(X)
  real X(8)
!hpf$ processors P(2)
end
"""
    )
    assert resolve_program(p).get("foo").array("x").intent == "inout"


def test_resolve_mismatched_processors_across_subs():
    p = parse_program(
        """
subroutine a()
  real X(8)
!hpf$ processors P(2)
end

subroutine b()
  real X(8)
!hpf$ processors Q(4)
end
"""
    )
    with pytest.raises(SemanticError):
        resolve_program(p)


# ---------------------------------------------------------------------------
# property: printer/parser round-trip on generated programs
# ---------------------------------------------------------------------------

names = st.sampled_from(["a", "b", "c"])


@st.composite
def gen_stmt(draw, depth=0):
    choice = draw(st.integers(0, 4 if depth < 2 else 2))
    if choice == 0:
        return Compute(
            draw(st.sampled_from(["", "k"])),
            tuple(draw(st.lists(names, max_size=2, unique=True))),
            tuple(draw(st.lists(names, max_size=2, unique=True))),
        )
    if choice == 1:
        return Redistribute(
            draw(names),
            (
                st.one_of(
                    st.just(("block", None)),
                    st.just(("cyclic", 2)),
                    st.just(("star", None)),
                )
                .map(lambda kv: __import__("repro.lang.ast_nodes", fromlist=["FormatSpec"]).FormatSpec(*kv))
                .example()
                if False
                else draw(
                    st.sampled_from(
                        [
                            __import__(
                                "repro.lang.ast_nodes", fromlist=["FormatSpec"]
                            ).FormatSpec(k, a)
                            for k, a in [("block", None), ("cyclic", 2), ("star", None)]
                        ]
                    )
                ),
            ),
        )
    if choice == 2:
        return Kill((draw(names),))
    if choice == 3:
        return If(
            draw(st.sampled_from(["c1", "c2"])),
            Block(tuple(draw(st.lists(gen_stmt(depth + 1), max_size=2)))),
            Block(tuple(draw(st.lists(gen_stmt(depth + 1), max_size=2)))),
        )
    return Do(
        "i",
        1,
        draw(st.integers(1, 5)),
        Block(tuple(draw(st.lists(gen_stmt(depth + 1), max_size=2)))),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(gen_stmt(), max_size=5))
def test_prop_print_parse_roundtrip(stmts):
    from repro.lang.ast_nodes import ArrayDecl, Subroutine

    sub = Subroutine(
        "s",
        (),
        (ArrayDecl("a", (8,)), ArrayDecl("b", (8,)), ArrayDecl("c", (8,))),
        Block(tuple(stmts)),
    )
    p = Program((sub,))
    assert parse_program(print_program(p)) == p
