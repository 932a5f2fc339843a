"""Named verification batteries over the bundled corpus.

Each suite returns a list of (check name, passed, detail) rows; the CLI
prints one row per line, and the acceptance tests assert every row.  A
suite imports the modules it computes with when it runs, and the command
line imports this module only for ``superlie verify``, so it starts
without either; :func:`run_suite` refuses an unknown name as an input
error (exit 2).
"""

from __future__ import annotations

from .algebras import (
    LieSuperAlgebra,
    abelian,
    induced_action_table,
    quotient_space,
    series,
    subalgebra_on,
)
from .corpus import assoc_algebra, lie_algebra
from .fields import QQ, InputError
from .linalg import Subspace
from .spaces import GradedMap, SuperSpace, format_dims

Row = tuple[str, bool, str]


def _compatible_products():
    """Tensor products of corpus pairs with compatible actions: the adjoint
    squares, then products with trivial actions."""
    from .actions import trivial_action
    from .tensor import adjoint_tensor_square, nonabelian_tensor

    for name in ("heis", "gl11", "sl21", "sl30"):
        yield f"{name}(x){name} adjoint", adjoint_tensor_square(lie_algebra(name))
    for a, b in (("abelian11", "abelian21"), ("heis", "abelian10")):
        M, N = lie_algebra(a), lie_algebra(b)
        yield (f"{a}(x){b} trivial",
               nonabelian_tensor(M, N, trivial_action(M, N), trivial_action(N, M)))


def suite_tensor_props() -> list[Row]:
    from .tensor import tensor_symmetry_iso, trivial_action_tensor

    rows: list[Row] = []
    for label, t in _compatible_products():
        # construction certifies annihilation, antisymmetry, Lie axioms, crossed modules
        rows.append((f"{label}: well-defined, (mu),(nu) crossed", True,
                     f"dim {format_dims(t.algebra.space.dim_pair)}"))
        iso, swapped = tensor_symmetry_iso(t)
        rows.append((f"{label}: symmetry iso", True,
                     f"dim {t.algebra.dim} = {swapped.algebra.dim}"))
        if t.act_mn.is_trivial() and t.act_nm.is_trivial():
            sp = trivial_action_tensor(t.m, t.n)
            ok = sp.dim_pair == t.algebra.space.dim_pair and t.algebra.is_abelian()
            rows.append((f"{label}: equals Mab (x) Nab, abelian", ok,
                         f"{format_dims(sp.dim_pair)} vs {format_dims(t.algebra.space.dim_pair)}"))
    return rows


def _solvable2() -> LieSuperAlgebra:
    sp = SuperSpace(QQ, ("a", "b"), (0, 0))
    return LieSuperAlgebra(sp, {(0, 1): {1: 1}}, name="solv2")


def suite_nil_bounds() -> list[Row]:
    from .actions import adjoint_action, trivial_action
    from .tensor import nilpotency_bounds_check

    rows: list[Row] = []
    cases = []
    for name in ("heis", "gl11"):
        P = lie_algebra(name)
        adj = adjoint_action(P)
        cases.append((f"{name} adjoint", P, P, adj, adj))
    s2 = _solvable2()
    adj2 = adjoint_action(s2)
    cases.append(("solv2 adjoint", s2, s2, adj2, adj2))
    A, B = lie_algebra("abelian11"), lie_algebra("abelian21")
    cases.append(("abelian trivial", A, B, trivial_action(A, B), trivial_action(B, A)))
    for label, M, N, amn, anm in cases:
        rep = nilpotency_bounds_check(M, N, amn, anm)
        detail = ", ".join(f"{k}={v}" for k, v in rep.numbers.items() if v is not None)
        rows.append((f"bounds {label}", rep.ok, detail))
    return rows


def suite_uce() -> list[Row]:
    from .homology import h2_via_exterior, homology
    from .tensor import uce

    rows: list[Row] = []
    for name in ("sl21", "sl30"):
        P = lie_algebra(name)
        ce = uce(P)
        chain = homology(P, None, 2)
        ext = h2_via_exterior(P)
        ok = ce.kernel_dims == chain.dims == ext.dims
        rows.append((f"uce triangle {name}", ok,
                     f"ker {format_dims(ce.kernel_dims)} chain {format_dims(chain.dims)} wedge {format_dims(ext.dims)}"))
    return rows


def suite_d3_lemma() -> list[Row]:
    from .homology import d3_lemma_check

    rows: list[Row] = []
    for name in ("abelian21", "heis", "sl21", "gl11"):
        P = lie_algebra(name)
        rep = d3_lemma_check(P)
        rows.append((f"d3 lemma {name}", rep.ok,
                     rep.details or f"dims {format_dims(rep.lhs_dims)}"))
    return rows


def suite_hopf() -> list[Row]:
    from .freelie import Presentation, genset
    from .homology import homology, hopf_formula

    rows: list[Row] = []
    pres_heis = Presentation(genset([("x", 0), ("y", 0)]),
                             ([["x", "y"], "x"], [["x", "y"], "y"]))
    cases = [
        ("heis by relators, c=2", pres_heis, 2),
        ("free 2 even gens, c=2", Presentation(genset([("x", 0), ("y", 0)]), ()), 2),
        ("free 2 even gens, c=3", Presentation(genset([("x", 0), ("y", 0)]), ()), 3),
    ]
    for label, pres, c in cases:
        hres = hopf_formula(pres, c)
        chain = homology(hres.presented, None, 2)
        ok = hres.dims == chain.dims
        rows.append((f"hopf {label}", ok,
                     f"hopf {format_dims(hres.dims)} chain {format_dims(chain.dims)}"))
    return rows


def standard_crossed_ses() -> list[tuple[str, CrossedSES]]:
    """Three short exact sequences of crossed modules used by the snake suite."""
    from .actions import (
        Action,
        CrossedModule,
        adjoint_action,
        identity_crossed,
        supermodule_crossed,
        trivial_action,
    )
    from .homology import CrossedSES

    out = []
    h = lie_algebra("heis")
    # (1) trivial coefficients 0 -> K -> K^2 -> K -> 0
    L = abelian(QQ, 1, 0, prefix="l")
    M = abelian(QQ, 2, 0, prefix="m")
    N = abelian(QQ, 1, 0, prefix="n")
    ses1 = CrossedSES(
        h,
        supermodule_crossed(h, L, trivial_action(h, L)),
        supermodule_crossed(h, M, trivial_action(h, M)),
        supermodule_crossed(h, N, trivial_action(h, N)),
        GradedMap.from_columns(L.space, M.space, [{0: 1}]),
        GradedMap.from_columns(M.space, N.space, [{}, {0: 1}]),
    )
    out.append(("trivial modules over heis", ses1))
    # (2) 0 -> Z -> ad -> ad/Z -> 0 as supermodules over heis
    s = series(h)
    zview = subalgebra_on(h, s.center, name="Z")
    had = abelian(QQ, 3, 0, prefix="ha")
    cm_m = supermodule_crossed(h, had, Action(h, had, adjoint_action(h).table))
    q = quotient_space(h.space, Subspace.full(QQ, 3), s.center, "q")
    qalg = abelian(QQ, q.dim, 0, prefix="q")
    q_table = induced_action_table(q, 3, lambda p, v: h.bracket({p: 1}, v))
    cm_n = supermodule_crossed(h, qalg, Action(h, qalg, q_table))
    cm_l = supermodule_crossed(h, zview.algebra, trivial_action(h, zview.algebra))
    f2 = GradedMap.from_columns(zview.algebra.space, had.space,
                                [dict(c) for c in zview.inclusion.matrix.cols])
    g2 = GradedMap.from_columns(had.space, qalg.space,
                                [q.reduce({i: 1}) for i in range(3)])
    out.append(("center sequence over heis", CrossedSES(h, cm_l, cm_m, cm_n, f2, g2)))
    # (3) 0 -> (K,0) -> (P + K, pr) -> (P, id) -> 0 over gl11
    P = lie_algebra("gl11")
    labels = tuple(P.space.labels) + ("c",)
    parities = P.space.parities + (0,)
    spM = SuperSpace(QQ, labels, parities)
    Mx = LieSuperAlgebra.from_bracket(spM, P.bracket_index(), "PxK")
    bnd = GradedMap.from_columns(spM, P.space, [{i: 1} for i in range(P.dim)] + [{}])
    Kl = abelian(QQ, 1, 0, prefix="c")
    ses3 = CrossedSES(
        P,
        supermodule_crossed(P, Kl, trivial_action(P, Kl)),
        CrossedModule(Mx, P, bnd, Action(P, Mx, adjoint_action(P).table)),
        identity_crossed(P),
        GradedMap.from_columns(Kl.space, spM, [{P.dim: 1}]),
        bnd,
    )
    out.append(("central line over gl11", ses3))
    return out


def suite_snake() -> list[Row]:
    from .homology import snake_sequence

    rows: list[Row] = []
    for label, ses in standard_crossed_ses():
        rep = snake_sequence(ses)
        dims = " ".join(format_dims(d) for d in rep.dims)
        rows.append((f"snake {label}", rep.ok, dims))
    return rows


def suite_cyclic_sixterm() -> list[Row]:
    from .cyclic import cyclic_sixterm

    rows: list[Row] = []
    for name in ("q", "dual", "grassmann", "m11"):
        A = assoc_algebra(name)
        st = cyclic_sixterm(A)
        dims = " ".join(format_dims(d) for d in st.report.dims)
        rows.append((f"cyclic six-term {name}", st.ok, dims))
        for ident, ok in st.identifications:
            rows.append((f"  {name}: {ident}", ok, ""))
    return rows


def suite_final_sixterm() -> list[Row]:
    from .homology import ideal_sixterm

    rows: list[Row] = []
    h = lie_algebra("heis")
    rep = ideal_sixterm(h, series(h).center)
    rows.append(("six-term heis / center", rep.ok,
                 " ".join(format_dims(d) for d in rep.dims)))
    gl = lie_algebra("gl11")
    slpart = gl.product_subspace(gl.full_subspace(), gl.full_subspace())
    rep2 = ideal_sixterm(gl, slpart)
    rows.append(("six-term gl11 / sl-part", rep2.ok,
                 " ".join(format_dims(d) for d in rep2.dims)))
    return rows


def suite_miller() -> list[Row]:
    from .freelie import genset, miller_truncated_check

    rows: list[Row] = []
    gen_cases = [
        [("x", 0)], [("t", 1)],
        [("x", 0), ("y", 0)], [("x", 0), ("t", 1)], [("s", 1), ("t", 1)],
    ]
    for gens in gen_cases:
        for c in (1, 2, 3):
            rep = miller_truncated_check(genset(gens), c)
            label = ",".join(f"{l}{'~' if p else ''}" for l, p in gens)
            rows.append((f"miller [{label}] c={c}", rep.ok,
                         f"kernel {format_dims(rep.kernel_dims)} = truncated {format_dims(rep.truncation_dims)}"))
    return rows


def suite_cyclic_crosspath() -> list[Row]:
    """HC_1 from the Connes complex against the kernel model, plus the
    Milnor comparison for supercommutative algebras."""
    from .cyclic import connes, hc, hc1_kernel_model, milnor_hc1

    rows: list[Row] = []
    for name in ("q", "dual", "grassmann", "m11"):
        A = assoc_algebra(name)
        cx = connes(A, 2)
        a = hc(A, 1, cx).dims
        b = hc1_kernel_model(A).dims
        rows.append((f"HC1({name}) two paths", a == b, f"{format_dims(a)} vs {format_dims(b)}"))
        if A.is_supercommutative():
            m = milnor_hc1(A).dims
            rows.append((f"HC1({name}) = Milnor (supercommutative)", a == m,
                         f"{format_dims(a)} vs {format_dims(m)}"))
    return rows


SUITES = {
    "tensor-props": suite_tensor_props,
    "nil-bounds": suite_nil_bounds,
    "uce": suite_uce,
    "d3-lemma": suite_d3_lemma,
    "hopf": suite_hopf,
    "snake": suite_snake,
    "cyclic-sixterm": suite_cyclic_sixterm,
    "final-sixterm": suite_final_sixterm,
    "miller": suite_miller,
    "cyclic-crosspath": suite_cyclic_crosspath,
}


def run_suite(name: str) -> list[Row]:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name]()
