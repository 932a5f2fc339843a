"""Seeded inputs for the benchmark.

Every algebra the program receives is rewritten in the basis
f_k = s_k * e_perm(k): a seeded permutation of the homogeneous basis and a
seeded nonzero rescaling of each basis vector.  This is an isomorphism, so
every invariant the benchmark checks stays the same for every seed, while
the order of elimination and the signs and residues of the coefficients
change.  The structure constants stay as sparse as before.

Over GF(p) the scalars are 1, -1, 2, 1/2 and -3 taken mod p.  Over Q they
are signs only: any other scalar turns integer structure constants into
fractions, which in trials moved the time of the sl(2|1, Lambda1) UCE by up
to 30 % from seed to seed, while sign changes moved it by 3 % (README.md).
A benchmark whose figures depend that much on the seed cannot show a 10 %
change, so the rational inputs keep integer constants.

The rewriting works on the algebra file format of ``superlie`` (the dict
that ``superlie.io.algebra_to_json`` writes and ``parse_algebra`` reads), so
the same code makes the inputs of the library workloads and the files handed
to the command line.  It uses the standard library only.
"""

from __future__ import annotations

import random
from fractions import Fraction

SCALARS_MOD_P = (1, -1, 2, Fraction(1, 2), -3)
SCALARS_Q = (1, -1)


def _format(c: Fraction, p: int | None) -> str:
    if p is None:
        return str(c)
    return str(c.numerator * pow(c.denominator, -1, p) % p)


def _structure(obj: dict) -> tuple[list[str], list[int], dict]:
    """Labels, parities and the full product table {(i, j): {k: c}}; for a
    Lie algebra the pairs j > i are filled in by graded antisymmetry."""
    labels = [b[0] for b in obj["basis"]]
    parities = [b[1] for b in obj["basis"]]
    index = {l: i for i, l in enumerate(labels)}
    lie = obj["kind"] == "lie"
    full: dict[tuple[int, int], dict[int, Fraction]] = {}
    for entry in obj["table"]:
        i, j = index[entry["left"]], index[entry["right"]]
        v = {index[l]: Fraction(c) for l, c in entry["value"]}
        full[(i, j)] = v
        if lie and i != j:
            # [e_j, e_i] = -(-1)^{|i||j|} [e_i, e_j]
            s = 1 if parities[i] * parities[j] else -1
            full[(j, i)] = {k: s * c for k, c in v.items()}
    return labels, parities, full


def change_basis(obj: dict, rng: random.Random) -> dict:
    """The algebra file ``obj`` rewritten in a seeded permuted, rescaled basis.

    Labels travel with their basis vectors, so a label keeps its parity."""
    p = obj["field"].get("p")
    labels, parities, full = _structure(obj)
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    usable = SCALARS_Q if p is None else [s for s in SCALARS_MOD_P if Fraction(s).numerator % p]
    scale = [Fraction(rng.choice(usable)) for _ in range(n)]
    new_index = {perm[k]: k for k in range(n)}  # e_c = f_{new_index[c]} / scale[...]
    new_labels = [labels[perm[k]] for k in range(n)]

    def rewrite(v: dict[int, Fraction], factor: Fraction) -> list[list[str]]:
        terms = sorted((new_index[k], factor * c / scale[new_index[k]]) for k, c in v.items())
        value = [[new_labels[k], _format(c, p)] for k, c in terms]
        return [t for t in value if t[1] != "0"]

    lie = obj["kind"] == "lie"
    table = []
    for a in range(n):
        for b in range(a if lie else 0, n):
            if lie and a == b and parities[perm[a]] == 0:
                continue
            v = full.get((perm[a], perm[b]))
            if not v:
                continue
            value = rewrite(v, scale[a] * scale[b])
            if value:
                table.append({"left": new_labels[a], "right": new_labels[b], "value": value})
    out = {
        "name": obj["name"],
        "field": dict(obj["field"]),
        "kind": obj["kind"],
        "basis": [[new_labels[k], parities[perm[k]]] for k in range(n)],
        "table": table,
    }
    if "unit" in obj:
        unit = {}
        index = {l: i for i, l in enumerate(labels)}
        for l, c in obj["unit"]:
            unit[index[l]] = Fraction(c)
        out["unit"] = rewrite(unit, Fraction(1))
    return out


def adjoint_action_file(obj: dict) -> dict:
    """The adjoint action file of a Lie algebra file: p.m = [p, m]."""
    labels, _, full = _structure(obj)
    p = obj["field"].get("p")
    entries = []
    for (i, j), v in sorted(full.items()):
        value = [[labels[k], _format(c, p)] for k, c in sorted(v.items())]
        entries.append({"p": labels[i], "m": labels[j], "value": value})
    return {"actor": obj["name"], "target": obj["name"], "entries": entries}


def shuffle_generators(gens: list, rng: random.Random) -> list:
    """A presentation's generators in a seeded order (relators are unchanged)."""
    out = list(gens)
    rng.shuffle(out)
    return out
