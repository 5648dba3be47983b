"""Cross-route oracle equivalences.

Each check computes one quantity by two or more independent routes and
demands exact agreement: the closed-form Betti tables against the
homological ones on strongly stable ideals, and the colon-quotient
annihilator numbers against the gin generator statistics.  These are the
strongest internal consistency gates the package has.
"""

from dataclasses import dataclass

from .annihilators import annihilators_from_gin, generic_annihilators_direct
from .betti import (
    ahh_betti,
    bigatti_betti,
    cartan_betti,
    ek_betti,
    exterior_i_max,
    koszul_betti,
)
from .groebner import gin


@dataclass
class OracleResult:
    name: str
    ok: bool
    detail: str = ""


def betti_oracle_triple(J):
    """ek = bigatti = koszul on a strongly stable polynomial ideal."""
    kz = koszul_betti(J.to_ideal(), reg_bound=J.max_gen_degree())
    ek = ek_betti(J)
    bg = bigatti_betti(J)
    ok = kz.entries == ek.entries == bg.entries
    detail = ""
    if not ok:
        detail = f"koszul={sorted(kz.entries.items())} ek={sorted(ek.entries.items())} bigatti={sorted(bg.entries.items())}"
    return OracleResult("betti-three-way", ok, detail)


def betti_oracle_exterior(J, i_max):
    """ahh = cartan on a strongly stable exterior ideal, windowed in i."""
    ct = cartan_betti(J.to_ideal(), i_max=i_max)
    ah = ahh_betti(J, i_max=i_max)
    ok = ct.entries == ah.entries
    detail = ""
    if not ok:
        detail = f"cartan={sorted(ct.entries.items())} ahh={sorted(ah.entries.items())}"
    return OracleResult("betti-exterior-two-way", ok, detail)


def alpha_oracle(ideal, seed=0):
    """Direct colon-quotient annihilator numbers match the gin statistics."""
    direct = generic_annihilators_direct(ideal, seed=seed)
    from_gin = annihilators_from_gin(ideal, seed=seed)
    ok = direct.same_numbers(from_gin)
    detail = ""
    if not ok:
        detail = f"direct={sorted(direct.entries.items())} gin={sorted(from_gin.entries.items())}"
    return OracleResult("alpha-two-route", ok, detail)


def oracle_equivalences(ideal, seed=0):
    """All applicable oracle equivalences for one ideal."""
    results = []
    J, _ = gin(ideal, seed=seed)
    if ideal.ring.is_exterior:
        results.append(betti_oracle_exterior(J, exterior_i_max(ideal.ring)))
    elif not ideal.is_zero():
        results.append(betti_oracle_triple(J))
    results.append(alpha_oracle(ideal, seed=seed))
    return results
