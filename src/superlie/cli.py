"""Command line front end.

Exit codes: 0 when every certificate passes, 1 on a mathematical failure
or axiom violation, 2 on input errors.  Reports are deterministic for
identical inputs; ``--out json`` emits a canonical machine-readable form.

The corpus is the JSON files bundled inside the package (see
:mod:`superlie.corpus`); an argument of the form ``@name`` (for example
``@sl21``) names one of them, ``superlie corpus list`` lists them, and
``superlie corpus export DIR`` copies them all into DIR.

Start-up imports the file parsers and the axiom checks only; each command
imports the modules it computes with when it runs, so ``check`` never
loads the tensor product, the homology or the free Lie algebras, and only
``verify`` loads the suite table, which also refuses an unknown suite.
Input files are digested with the interpreter's built-in SHA-256 module,
not ``hashlib``, whose OpenSSL binding adds about 3 MB to a process.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import corpus
from .algebras import (
    AssocSuperAlgebra,
    LieSuperAlgebra,
    check_assoc_axioms,
    check_lie_axioms,
    series,
)
from .fields import InputError, MathError
from .io import ParseError, dumps_canonical, load_algebra, load_crossed, load_json, load_presentation, parse_action, parse_module
from .spaces import format_dims


def resolve_path(arg: str) -> Path:
    if arg.startswith("@"):
        try:
            return corpus.bundled_path(arg[1:])
        except KeyError:
            raise ParseError(f"no bundled file named {arg!r}") from None
    return Path(arg)


class Refused(Exception):
    """An input fails its certificate; ``main`` emits ``report``, which
    records the first violation, with exit 1."""

    def __init__(self, report: Report):
        self.report = report


class Report:
    def __init__(self, command: str, out: str):
        self.data: dict = {"command": command, "inputs": {}, "results": {}, "status": "ok"}
        self.lines: list[str] = []
        self.out = out

    def read(self, arg: str, load):
        """``load`` of the file that ``arg`` names (``@name`` for a bundled
        one), recorded among the inputs with the first 16 hex digits of
        the SHA-256 of its bytes."""
        try:  # the interpreter's own SHA-256: hashlib would load OpenSSL
            from _sha256 import sha256
        except ImportError:
            try:
                from _sha2 import sha256  # the module's name from Python 3.12 on
            except ImportError:
                from hashlib import sha256

        path = resolve_path(arg)
        value = load(path)
        self.data["inputs"][str(path)] = sha256(path.read_bytes()).hexdigest()[:16]
        return value

    def line(self, text: str):
        self.lines.append(text)

    def result(self, key: str, value):
        self.data["results"][key] = value

    def require(self, cert, key: str, message: str) -> None:
        """Refuse the input when ``cert`` fails: record its first violation
        under ``message`` and ``key``, and raise :class:`Refused`."""
        if not cert.ok:
            self.line(f"{message}: {cert.violations[0]}")
            self.result(key, False)
            raise Refused(self)

    def emit(self, status_code: int) -> int:
        self.data["status"] = {0: "ok", 1: "failed"}[status_code]
        if self.out == "json":
            sys.stdout.write(dumps_canonical(self.data))
        else:
            for l in self.lines:
                print(l)
        return status_code


def _axioms(alg):
    """The axiom certificate of an algebra file: Jacobi or associativity."""
    return check_lie_axioms(alg) if isinstance(alg, LieSuperAlgebra) else check_assoc_axioms(alg)


def _kind(alg) -> str:
    return "a Lie superalgebra" if isinstance(alg, LieSuperAlgebra) else "associative"


def _require_axioms(rep: Report, *algebras) -> None:
    """Refuse the first algebra that fails its axioms; an algebra given
    twice is checked once."""
    for alg in dict.fromkeys(algebras):
        rep.require(_axioms(alg), "certified", f"{alg.name}: NOT {_kind(alg)}")


def cmd_check(args) -> int:
    rep = Report("check", args.out)
    alg = rep.read(args.path, load_algebra)
    lie = isinstance(alg, LieSuperAlgebra)
    cert = _axioms(alg)
    rep.result("kind", "lie" if lie else "assoc")
    rep.result("dims", alg.space.dim_pair)
    rep.result("certified", cert.ok)
    if not cert.ok:
        rep.result("violations", [str(v) for v in cert.violations[:8]])
        rep.line(f"{alg.name}: NOT {_kind(alg)}")
        for v in cert.violations[:8]:
            rep.line(f"  violation: {v}")
    elif lie:
        s = series(alg)
        cls = "perfect" if s.is_perfect else (
            f"class {s.nil_class}" if s.nil_class is not None else
            (f"solvable length {s.derived_length}" if s.derived_length is not None
             else "not solvable"))
        rep.result("series", {
            "nil_class": s.nil_class, "derived_length": s.derived_length,
            "center_dim": s.center.dim, "perfect": s.is_perfect})
        rep.line(f"{alg.name}: certified Lie superalgebra, dim {alg.space}, {cls}")
    else:
        bits = ["associative"]
        if alg.unit is not None:
            bits.append("unital")
        if alg.is_supercommutative():
            bits.append("supercommutative")
        rep.result("properties", bits)
        rep.line(f"{alg.name}: {', '.join(bits)}, dim {alg.space}")
    return rep.emit(0 if cert.ok else 1)


def _load_kind(cls, path: Path):
    """The algebra file at ``path``, refused unless it holds a ``cls``;
    passed to :meth:`Report.read`, so the message names the resolved path."""
    alg = load_algebra(path)
    if not isinstance(alg, cls):
        kind = "a Lie" if cls is LieSuperAlgebra else "an associative"
        raise ParseError(f"{path} is not {kind} superalgebra file")
    return alg


_load_lie = partial(_load_kind, LieSuperAlgebra)
_load_assoc = partial(_load_kind, AssocSuperAlgebra)


def cmd_tensor(args) -> int:
    from .actions import check_action, check_compatible, trivial_action
    from .tensor import adjoint_tensor_square, exterior_square, nonabelian_tensor, uce

    if args.adjoint + args.trivial + bool(args.act_mn or args.act_nm) > 1:
        raise ParseError("choose one of --adjoint, --trivial, or --act-mn with --act-nm")
    if args.exterior and not args.adjoint:
        raise ParseError("--exterior is supported for the self tensor square (--adjoint)")
    if not (args.adjoint or args.trivial or (args.act_mn and args.act_nm)):
        raise ParseError("provide --act-mn and --act-nm, or --adjoint / --trivial")
    rep = Report("tensor", args.out)
    M = rep.read(args.m, _load_lie)
    N = rep.read(args.n, _load_lie)
    if M.field != N.field:
        raise ParseError(f"field mismatch: {M.field} vs {N.field}")
    if args.adjoint:
        if algebra_fingerprint(M) != algebra_fingerprint(N):
            raise ParseError("--adjoint requires the same algebra on both sides")
        N = M
    _require_axioms(rep, M, N)
    if args.trivial:
        amn, anm = trivial_action(M, N), trivial_action(N, M)
    elif not args.adjoint:
        amn = parse_action(rep.read(args.act_mn, load_json), M, N)
        anm = parse_action(rep.read(args.act_nm, load_json), N, M)
        for a, label in ((amn, "M on N"), (anm, "N on M")):
            rep.require(check_action(a), "action_valid", f"action {label} fails its axioms")
        rep.require(check_compatible(amn, anm), "compatible", "actions are not compatible")
    t = adjoint_tensor_square(M) if args.adjoint else nonabelian_tensor(M, N, amn, anm)
    dims = t.algebra.space.dim_pair
    im_mu, im_nu = M.space.split_dims(t.im_mu.rows), N.space.split_dims(t.im_nu.rows)
    ker_mu = t.algebra.space.split_dims(t.mu.kernel().rows)
    ker_nu = t.algebra.space.split_dims(t.nu.kernel().rows)
    rep.result("dim", dims)
    rep.result("[M,N]^M", im_mu)
    rep.result("[M,N]^N", im_nu)
    rep.result("ker_mu", ker_mu)
    rep.result("ker_nu", ker_nu)
    rep.line(f"M (x) N: dim {format_dims(dims)}; certified (bracket kills D, crossed modules pass)")
    rep.line(f"[M,N]^M: dim {format_dims(im_mu)}   [M,N]^N: dim {format_dims(im_nu)}")
    rep.line(f"Ker mu: dim {format_dims(ker_mu)}   Ker nu: dim {format_dims(ker_nu)}")
    if args.exterior:
        ext = exterior_square(M)
        square = t.algebra.space.split_dims(ext.square.rows)
        rep.result("square_ideal", square)
        rep.result("exterior_dim", ext.algebra.space.dim_pair)
        rep.line(f"M square M: dim {format_dims(square)}   "
                 f"M (^) M: dim {format_dims(ext.algebra.space.dim_pair)}")
    if args.uce:
        ce = uce(M)
        rep.result("uce_kernel", ce.kernel_dims)
        rep.line(f"universal central extension kernel (= H2): dim {format_dims(ce.kernel_dims)}")
    return rep.emit(0)


def algebra_fingerprint(alg) -> tuple:
    table = tuple(sorted((k, tuple(sorted(v.items()))) for k, v in alg.table.items()))
    return (alg.field, alg.space.labels, alg.space.parities, table)


def cmd_homology(args) -> int:
    if args.class_bound is not None and not args.hopf:
        raise ParseError("--class is the class bound of --hopf, which is not given")
    max_n = args.degree
    if max_n < 0:
        raise ParseError(f"--degree must be non-negative, got {max_n}")

    from .actions import check_action, check_crossed, identity_crossed
    from .homology import ce_complex, homology, hopf_formula, nh, trivial_module

    rep = Report("homology", args.out)
    P = rep.read(args.path, _load_lie)
    _require_axioms(rep, P)
    module = trivial_module(P)
    if args.module:
        module = parse_module(rep.read(args.module, load_json), P)
        rep.require(check_action(module), "module_valid", "module fails its axioms")
    cx = ce_complex(P, module, max_n + 1)
    dims_table = []
    for n in range(max_n + 1):
        r = homology(P, module, n, complex_=cx)
        dims_table.append(r.dims)
        rep.line(f"H{n}: dim {format_dims(r.dims)}")
    rep.result("homology", dims_table)
    status = 0
    if args.hopf:
        pres = rep.read(args.hopf, load_presentation)
        hres = hopf_formula(pres, 2 if args.class_bound is None else args.class_bound)
        chain = homology(hres.presented, None, 2)
        agree = hres.dims == chain.dims
        rep.result("hopf", {"formula": hres.dims, "chain": chain.dims, "agree": agree})
        rep.line(f"Hopf formula: {format_dims(hres.dims)}   chain H2: {format_dims(chain.dims)}   "
                 f"{'agree' if agree else 'DISAGREE'}")
        if not agree:
            status = 1
    if args.nonabelian:
        if args.nonabelian == "identity":
            cm = identity_crossed(P)
        else:
            cm = rep.read(args.nonabelian, load_crossed)
            if algebra_fingerprint(cm.p) != algebra_fingerprint(P):
                raise ParseError(f"crossed module {args.nonabelian} is over {cm.p.name!r} "
                                 f"({cm.p.field}), not over {P.name!r} ({P.field})")
            rep.require(check_crossed(cm), "crossed_valid", "crossed module fails its axioms")
        # cm.p is P, or the same algebra parsed again from the crossed module's file
        r = nh(cm.p, cm)
        rep.result("nh0", r.nh0.dims)
        rep.result("nh1", r.nh1.dims)
        rep.line(f"nh0: dim {format_dims(r.nh0.dims)}   nh1: dim {format_dims(r.nh1.dims)}")
    return rep.emit(status)


def cmd_cyclic(args) -> int:
    from .cyclic import NotUnital, connes, cyclic_sixterm, hc, hc1_kernel_model, milnor_hc1

    rep = Report("cyclic", args.out)
    A = rep.read(args.path, _load_assoc)
    _require_axioms(rep, A)
    if A.unit is None:
        raise NotUnital("cyclic homology commands require a unital algebra")
    cx = connes(A, 2)
    h0 = hc(A, 0, cx)
    h1 = hc(A, 1, cx)
    # the six-term sequence already builds the kernel model and the Milnor quotient
    st = cyclic_sixterm(A) if args.sixterm else None
    km_dims = st.hc1_dims if st is not None else hc1_kernel_model(A).dims
    mil_dims = st.milnor_dims if st is not None else milnor_hc1(A).dims
    rep.result("HC0", h0.dims)
    rep.result("HC1", h1.dims)
    rep.result("HC1_kernel_model", km_dims)
    rep.result("HC1_milnor", mil_dims)
    rep.line(f"HC0: dim {format_dims(h0.dims)}")
    rep.line(f"HC1: dim {format_dims(h1.dims)} (kernel model {format_dims(km_dims)})")
    rep.line(f"Milnor HC1: dim {format_dims(mil_dims)}")
    status = 0
    if h1.dims != km_dims:
        rep.line("HC1 cross-path MISMATCH")
        status = 1
    if A.is_supercommutative():
        note = "equal" if km_dims == mil_dims else "UNEQUAL"
        rep.line(f"supercommutative: HC1 and Milnor HC1 {note}")
        if km_dims != mil_dims:
            status = 1
    if st is not None:
        rep.result("sixterm_ok", st.ok)
        rep.result("sixterm_dims", st.report.dims)
        rep.line("six-term sequence: " + ("exact" if st.ok else "NOT exact"))
        for label, dims in zip(st.report.labels, st.report.dims):
            rep.line(f"  {label}: dim {format_dims(dims)}")
        for ident, ok in st.identifications:
            rep.line(f"  {ident}: {'ok' if ok else 'FAIL'}")
        if not st.ok:
            status = 1
    return rep.emit(status)


def cmd_verify(args) -> int:
    from .suites import run_suite

    rep = Report("verify", args.out)
    rows = run_suite(args.suite)
    ok = True
    for name, passed, detail in rows:
        mark = "pass" if passed else "FAIL"
        ok = ok and passed
        rep.line(f"[{mark}] {name}" + (f"  {detail}" if detail else ""))
    rep.result("suite", args.suite)
    rep.result("rows", [{"name": n, "ok": p, "detail": d} for n, p, d in rows])
    rep.result("passed", ok)
    return rep.emit(0 if ok else 1)


def cmd_corpus(args) -> int:
    rep = Report("corpus", args.out)
    if args.action == "list":
        if args.dir is not None:
            raise ParseError(f"corpus list takes no directory, got {args.dir!r}")
        names = corpus.file_names()
        for n in names:
            rep.line(n)
        rep.result("files", names)
        return rep.emit(0)
    target = Path("corpus" if args.dir is None else args.dir)
    try:
        copied = corpus.export(target)
    except OSError as exc:
        raise ParseError(f"cannot export the corpus to {target}: {exc}") from exc
    rep.result("exported", copied)
    rep.line(f"exported {len(copied)} files to {target}")
    return rep.emit(0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="superlie",
        description="Exact non-abelian tensor products, homology and cyclic "
                    "homology of Lie superalgebras")
    ap.add_argument("--out", choices=("text", "json"), default="text")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="certify the axioms of an algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("tensor", help="non-abelian tensor product of two algebras")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("--act-mn", help="action file of M on N")
    p.add_argument("--act-nm", help="action file of N on M")
    p.add_argument("--adjoint", action="store_true", help="use the adjoint self-actions")
    p.add_argument("--trivial", action="store_true", help="use trivial actions")
    p.add_argument("--exterior", action="store_true",
                   help="also compute the exterior square (with --adjoint)")
    p.add_argument("--uce", action="store_true",
                   help="also compute the universal central extension of M")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("homology", help="homology of a Lie superalgebra")
    p.add_argument("path")
    p.add_argument("-n", "--degree", type=int, default=2)
    p.add_argument("-m", "--module", help="coefficient module file")
    p.add_argument("--hopf", help="presentation file for the Hopf formula")
    p.add_argument("--class", dest="class_bound", type=int,
                   help="nilpotency class bound for --hopf (default 2)")
    p.add_argument("--nonabelian", help="crossed module file, or 'identity'")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("cyclic", help="cyclic homology of an associative superalgebra")
    p.add_argument("path")
    p.add_argument("--sixterm", action="store_true")
    p.set_defaults(func=cmd_cyclic)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="suite name; an unknown name lists the suites")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("corpus", help="list or export the bundled corpus")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("dir", nargs="?", help="target directory of export (default ./corpus)")
    p.set_defaults(func=cmd_corpus)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except Refused as exc:
        return exc.report.emit(1)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MathError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
